"""Every registered personality declares consistent tables.

The shared lowering driver reads a personality's tables; these tests
hold each table to the others and to the documentation: the accepted
API ops are exactly the handler table's keys, the RTS17x op sets only
name accepted ops, and docs/personalities.md maps every op.
"""

import re
from pathlib import Path

import pytest

from repro.personality import PERSONALITIES

DOCS = Path(__file__).resolve().parents[2] / "docs" / "personalities.md"


def mapping_tables(name):
    """The backticked names in the table rows of ``name``'s section."""
    for section in re.split(r"^## ", DOCS.read_text(), flags=re.M):
        heading = section.splitlines()[0]
        if f'"personality": "{name}"' in heading:
            rows = [line for line in section.splitlines()
                    if line.startswith("|")]
            return set(re.findall(r"`([^`]+)`", "\n".join(rows)))
    raise AssertionError(f"docs/personalities.md has no {name} section")


@pytest.mark.parametrize("name", sorted(PERSONALITIES))
class TestTables:
    def test_registered_under_its_name(self, name):
        assert PERSONALITIES[name].name == name

    def test_api_ops_are_the_handler_keys(self, name):
        personality = PERSONALITIES[name]
        assert personality.api_ops == tuple(personality.ops)

    def test_object_kinds_are_the_object_key_tables(self, name):
        personality = PERSONALITIES[name]
        assert personality.object_kinds == tuple(personality.object_keys)

    def test_rule_op_sets_name_accepted_ops(self, name):
        personality = PERSONALITIES[name]
        assert personality.blocking_ops
        assert personality.pollable_ops
        assert (personality.blocking_ops | personality.pollable_ops
                <= set(personality.api_ops))

    def test_docs_map_every_op(self, name):
        missing = set(PERSONALITIES[name].api_ops) - mapping_tables(name)
        assert not missing, sorted(missing)
