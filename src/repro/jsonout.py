"""The one pretty-JSON encoding of CLI output and serve bodies."""

import json
import os
import sys


def emit_json(payload, destination=None) -> str:
    """Write ``payload`` with ``indent=2``, sorted keys and a newline.

    ``destination`` is ``None`` (stdout), a path, or a file-like object;
    the text without the trailing newline is returned either way, so
    identical payloads give byte-identical output everywhere.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w") as handle:
            handle.write(text + "\n")
    else:
        (destination or sys.stdout).write(text + "\n")
    return text
