"""Comparison baselines: the untimed functional model and the
quantum-limited preemption model the paper positions itself against."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "quantum": ("QuantumContext", "QuantumProcessor"),
    "untimed": ("build_untimed", "strip_mapping"),
})
