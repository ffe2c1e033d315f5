"""What an import costs: each entry point loads only what it runs.

Every package ``__init__`` declares its exports lazily
(:mod:`repro._exports`), so importing the package, asking the CLI for
``--help`` or linting a spec must not compile the service, code
generation, campaign runner or trace exporters -- nor, through them,
``xml.sax``, ``urllib``, ``http`` and ``email``.  Each check runs in a
fresh interpreter: ``sys.modules`` of the test process says nothing.
"""

import json
import textwrap

import pytest

from .fresh import run_fresh

#: Modules (and their submodules) no entry point below may load.
NEVER_LOADED = (
    "repro.serve",
    "repro.codegen",
    "repro.campaign.runner",
    "repro.trace.html",
    "repro.trace.svg",
    "repro.trace.vcd",
    "xml.sax",
    "urllib.request",
    "http.client",
    "email",
)

ENTRY_POINTS = {
    "import repro": "import repro",
    "cli --help": """
        from repro.cli import main
        try:
            main(["--help"])
        except SystemExit:
            pass
    """,
    "cli lint": """
        from repro.cli import main
        main(["lint", "examples/blocking_budget.json"])
    """,
    "perfbench imports": """
        sys.path.insert(0, "perfbench")
        import jobs
    """,
}

#: Modules one entry point may not load on top of :data:`NEVER_LOADED`:
#: model lint needs the pragma parser, not the AST source linter.
ALSO_NEVER_LOADED = {
    "cli lint": ("repro.analyze.code",),
    "perfbench imports": ("repro.analyze.code",),
}


def fresh_value(body: str, result: str = "sorted(sys.modules)"):
    """Run ``body`` in a new interpreter and return ``result`` there."""
    code = (f"import json, sys\n{textwrap.dedent(body)}\n"
            f"sys.stdout.write('\\n' + json.dumps({result}))")
    return json.loads(run_fresh("-c", code).rsplit("\n", 1)[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_nothing_it_does_not_run(entry):
    loaded = fresh_value(ENTRY_POINTS[entry])
    unexpected = sorted(
        name for name in loaded
        for banned in NEVER_LOADED + ALSO_NEVER_LOADED.get(entry, ())
        if name == banned or name.startswith(banned + ".")
    )
    assert not unexpected, f"{entry} loaded {unexpected}"


def test_import_repro_loads_no_subpackage():
    loaded = fresh_value("import repro")
    assert [name for name in loaded if name.startswith("repro")] == [
        "repro", "repro._exports",
    ]


def test_cli_help_loads_only_the_cli():
    loaded = fresh_value(ENTRY_POINTS["cli --help"])
    assert [name for name in loaded if name.startswith("repro")] == [
        "repro", "repro._exports", "repro.cli", "repro.errors",
        "repro.jsonout", "repro.kernel", "repro.kernel.time",
    ]


EXPORTS_STAY_PUT = """
    import importlib, inspect, pkgutil
    import repro

    infos = list(pkgutil.walk_packages(repro.__path__, "repro."))
    packages = ["repro"] + [info.name for info in infos if info.ispkg]

    def import_all():
        for info in infos:
            importlib.import_module(info.name)

    def exports():
        for name in packages:
            package = importlib.import_module(name)
            for export in package.__all__:
                yield name, export, getattr(package, export)

    RESULT = []
    if SUBMODULES_FIRST:
        import_all()
    seen = {}
    for name, export, value in exports():
        seen[name, export] = value
        if inspect.ismodule(value):
            RESULT.append(f"{name}.{export} is a module")
        if export not in dir(sys.modules[name]):
            RESULT.append(f"{name}.{export} not in dir()")
    import_all()
    for name, export, value in exports():
        if value is not seen[name, export]:
            RESULT.append(f"{name}.{export} rebound by a submodule import")
"""


@pytest.mark.parametrize("submodules_first", [False, True],
                         ids=["exports-first", "submodules-first"])
def test_every_export_resolves_and_stays_put(submodules_first):
    body = f"SUBMODULES_FIRST = {submodules_first}\n" + \
        textwrap.dedent(EXPORTS_STAY_PUT)
    assert fresh_value(body, "RESULT") == []


def test_submodules_stay_reachable_as_attributes():
    names = fresh_value(
        "import repro.trace",
        "[repro.trace.svg.__name__, repro.analyze.lockgraph.__name__]",
    )
    assert names == ["repro.trace.svg", "repro.analyze.lockgraph"]


#: The tables other code looks names up in, as (module, attribute).  A
#: registry must be complete once its own module is imported: an entry
#: added by some other module's import would make lookups depend on what
#: the caller happened to import first.
REGISTRIES = [
    ("repro.rtos.policies", "POLICIES"),
    ("repro.rtos", "ENGINES"),
    ("repro.personality", "PERSONALITIES"),
    ("repro.corpus.generators", "GENERATORS"),
    ("repro.analyze.diagnostics", "RULES"),
    ("repro.analyze.diagnostics", "EXPLANATIONS"),
]

REGISTRY_COMPLETE = """
    import importlib, pkgutil
    import repro

    def keys():
        return sorted(getattr(importlib.import_module(MODULE), NAME))

    first = keys()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    RESULT = [first, keys()]
"""


@pytest.mark.parametrize("module,name", REGISTRIES,
                         ids=[name for _, name in REGISTRIES])
def test_registry_is_complete_on_its_own_import(module, name):
    body = f"MODULE, NAME = {module!r}, {name!r}\n" + \
        textwrap.dedent(REGISTRY_COMPLETE)
    first, complete = fresh_value(body, "RESULT")
    assert first == complete


def test_partitioned_spec_builds_after_importing_rtos_alone():
    registered = fresh_value("""
        from repro.rtos import POLICIES
        registered = "time_partition" in POLICIES
        from repro.corpus import generate
        from repro.mcse import build_system
        build_system(generate("partitioned", 0))
    """, "registered")
    assert registered is True
