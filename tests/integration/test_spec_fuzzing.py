"""Fuzzing the declarative spec pipeline: build, run, and generate C.

Random—but grammatically valid—specs must always elaborate, simulate
without kernel errors, and produce structurally sound C. This guards
the builder/codegen grammar against regressions from either side.
A fixed-seed mutation pass then points every relation op of the corpus
at a relation of each wrong kind: each mutant must fail at build time.
"""

import copy
import subprocess
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_c
from repro.corpus import GENERATORS, generate
from repro.errors import BuildError
from repro.mcse import build_system
from repro.mcse.builder import RELATION_OPS
from repro.personality import lower_spec

from ..mcse.test_builder import KIND_OF

RELATIONS = [
    {"kind": "event", "name": "ev_f", "policy": "fugitive"},
    {"kind": "event", "name": "ev_b", "policy": "boolean"},
    {"kind": "event", "name": "ev_c", "policy": "counter"},
    {"kind": "queue", "name": "q0", "capacity": 2},
    {"kind": "shared", "name": "sv0", "initial": 0},
]

# ops that never block alone (blocking ops need a peer, handled below)
safe_ops = st.sampled_from([
    ["execute", "2us"],
    ["execute", "0us"],
    ["delay", "3us"],
    ["signal", "ev_b"],
    ["signal", "ev_c"],
    ["write_shared", "sv0", 1],
    ["read_shared", "sv0"],
    ["lock", "sv0"],
])


def close_locks(ops):
    """Ensure every lock is paired with an unlock at the same level."""
    fixed = []
    depth = 0
    for op in ops:
        if op[0] == "lock":
            fixed.append(op)
            fixed.append(["unlock", "sv0"])
        elif op[0] == "loop":
            count, body = op[1], op[2]
            fixed.append(["loop", count, close_locks(body)])
        else:
            fixed.append(op)
    return fixed


script_bodies = st.recursive(
    st.lists(safe_ops, min_size=1, max_size=5),
    lambda inner: st.builds(
        lambda count, body: [["loop", count, body]],
        st.integers(1, 3),
        inner,
    ),
    max_leaves=4,
)


def make_spec(bodies, with_processor):
    functions = []
    for index, body in enumerate(bodies):
        fn = {"name": f"f{index}", "priority": index,
              "script": close_locks(body)}
        if with_processor:
            fn["processor"] = "cpu"
        functions.append(fn)
    spec = {
        "name": "fuzz",
        "relations": [dict(r) for r in RELATIONS],
        "functions": functions,
    }
    if with_processor:
        spec["processors"] = [{
            "name": "cpu", "scheduling_duration": "1us",
            "context_load_duration": "1us", "context_save_duration": "1us",
        }]
    return spec


class TestBuilderFuzz:
    @given(
        bodies=st.lists(script_bodies, min_size=1, max_size=3),
        with_processor=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_specs_always_run(self, bodies, with_processor):
        spec = make_spec(bodies, with_processor)
        system = build_system(spec)
        end = system.run(2_000_000_000_000)  # 2ms bound
        assert end >= 0
        # shared variable is never left locked by a terminated function
        sv = system.relations["sv0"]
        for fn in system.functions.values():
            if fn.state is not None and fn.state.value == "terminated":
                assert sv.owner is not fn

    @given(
        bodies=st.lists(script_bodies, min_size=1, max_size=3),
        with_processor=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_c_is_structurally_sound(self, bodies, with_processor):
        spec = make_spec(bodies, with_processor)
        app = generate_c(spec)["app.c"]
        assert app.count("{") == app.count("}")
        assert app.count("(") == app.count(")")
        for index in range(len(bodies)):
            assert f"task_f{index}" in app
        assert "int main(void)" in app


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestCodegenCompileFuzz:
    @given(bodies=st.lists(script_bodies, min_size=1, max_size=2))
    @settings(max_examples=5, deadline=None)
    def test_random_specs_compile(self, bodies, tmp_path_factory):
        spec = make_spec(bodies, with_processor=True)
        out = tmp_path_factory.mktemp("gen")
        generate_c(spec, str(out))
        subprocess.run(
            ["cc", "-fsyntax-only", "-Wall", "app.c"],
            cwd=out, check=True, capture_output=True,
        )


#: One decoy relation of every kind, so each relation op of a spec has
#: a relation of each wrong kind to be pointed at.
DECOYS = {"event": "decoy_event", "queue": "decoy_queue",
          "shared": "decoy_shared", "flags": "decoy_flags"}


def mutation_specs():
    """Seed-0/1/2 specs of every generic generator, plus lowered FreeRTOS."""
    for kind in sorted(GENERATORS):
        for seed in range(3):
            spec = generate(kind, seed)
            if spec.get("personality"):
                spec = lower_spec(spec).spec
            yield f"{kind}:{seed}", spec


def relation_op_paths(script, path=()):
    """The index path of every relation op in a (nested) script."""
    for index, op in enumerate(script):
        if op[0] == "loop":
            yield from relation_op_paths(op[2], path + (index, 2))
        elif op[0] in RELATION_OPS:
            yield path + (index,)


def wrong_kind_mutants(spec):
    """Each relation op pointed at a relation of every other kind."""
    base = copy.deepcopy(spec)
    kinds = {rel["name"]: rel["kind"] for rel in base.get("relations", ())}
    base.setdefault("relations", []).extend(
        {"kind": kind, "name": name} for kind, name in DECOYS.items())
    targets = dict(DECOYS)
    for name, kind in kinds.items():
        targets[kind] = name  # prefer the spec's own relations
    for f_index, fn in enumerate(base["functions"]):
        for path in relation_op_paths(fn.get("script", ())):
            op = fn["script"]
            for step in path:
                op = op[step]
            for kind, name in sorted(targets.items()):
                if issubclass(KIND_OF[kind], RELATION_OPS[op[0]][1]):
                    continue
                mutant = copy.deepcopy(base)
                target = mutant["functions"][f_index]["script"]
                for step in path:
                    target = target[step]
                target[1] = name
                yield f"{fn['name']}{list(path)} {op[0]}->{kind}", mutant


class TestWrongKindMutation:
    def test_every_wrong_kind_mutant_fails_at_build_time(self):
        mutants, escapes = 0, []
        for label, spec in mutation_specs():
            build_system(spec)  # the unmutated spec builds
            for where, mutant in wrong_kind_mutants(spec):
                mutants += 1
                try:
                    build_system(mutant)
                except BuildError:
                    continue
                escapes.append(f"{label} {where}")
        assert escapes == []
        assert mutants > 200  # the corpus really exercises relation ops
