"""Workload generators: synthetic task sets, control loops, MPEG-2 SoC."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "automotive": ("AutomotiveResult", "build_automotive_system"),
    "control": ("ControlLoop", "build_control_system", "default_loops"),
    "distributions": ("Bimodal", "Constant", "Distribution", "Empirical",
                      "Exponential", "Normal", "Uniform"),
    "fig6": ("fig6_spec",),
    "mpeg2": ("FRAME_PERIOD", "FrameStats", "GOP_PATTERN", "Mpeg2Soc"),
    "synthetic": ("PeriodicRunResult", "build_periodic_system",
                  "generate_periodic_taskset", "random_pipeline_spec",
                  "uunifast"),
})
