"""Scenario corpus: generators, batch matrices and the workload fuzzer.

The paper evaluates its RTOS model on two hand-built workloads (the
fig6/fig7 system and an MPEG-2 decoder).  This package replaces that
thin base with a *scenario stream* every subsystem can drink from:

* :mod:`~repro.corpus.generators` -- seeded workload generators
  (UUniFast periodic sets, harmonic/automotive period families, random
  precedence DAGs, bursty interrupts, ARINC-653 time partitions,
  mutex contention), all emitting the declarative builder spec JSON;
* :mod:`~repro.corpus.pipeline` -- the shared lint -> simulate ->
  verify check pipeline reducing one spec to a canonical verdict;
* :mod:`~repro.corpus.matrix` -- declarative batch matrices fanned
  through the campaign Runner with cached results
  (``pyrtos-sc batch-run``);
* :mod:`~repro.corpus.compare` -- audit diffs between two matrix runs
  (``pyrtos-sc compare``);
* :mod:`~repro.corpus.fuzzer` -- the fuzz loop feeding generated
  scenarios through the pipeline, shrinking findings via the verifier's
  counterexample minimizer and freezing them as regression seeds
  (``pyrtos-sc fuzz``);
* :mod:`~repro.corpus.seeds` -- the replayable seed-file format under
  ``tests/corpus/seeds/``.

Determinism is the design center: generators are pure functions of
``(kind, seed, params)``, the fuzz stream is a pure function of its
seed, and seed files embed the spec they were found with -- so every
finding is reproducible byte-for-byte, forever.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "compare": ("compare_reports", "format_comparison", "load_report"),
    "fuzzer": ("DEFAULT_HORIZON", "FuzzFinding", "FuzzReport", "fuzz"),
    "generators": ("AUTOMOTIVE_PERIODS_US", "GENERATORS", "Generator",
                   "dag_edges", "gen_bursty", "gen_contention", "gen_dag",
                   "gen_partitioned", "gen_periodic", "generate",
                   "spec_digest"),
    "matrix": ("cell_key", "expand_matrix", "load_matrix", "run_cell",
               "run_matrix", "validate_matrix"),
    "pipeline": ("PipelineOptions", "run_pipeline", "verdict_digest",
                 "violated_properties"),
    "seeds": ("SEED_FORMAT", "check_seed", "iter_seed_paths",
              "load_corpus", "load_seed", "make_seed_record",
              "replay_seed", "seed_signature", "write_seed"),
})
