"""pyrtos-sc: a generic RTOS model for real-time systems simulation.

A Python reproduction of R. Le Moigne, O. Pasquier and J-P. Calvez,
*A Generic RTOS Model for Real-time Systems Simulation with SystemC*,
DATE 2004.

Layers (bottom-up):

* :mod:`repro.kernel`   -- SystemC-like discrete-event kernel.
* :mod:`repro.mcse`     -- MCSE functional model (functions + relations).
* :mod:`repro.rtos`     -- the paper's contribution: the generic RTOS model.
* :mod:`repro.trace`    -- timeline charts, statistics, latency
  measurements, timing constraints, VCD/SVG export.
* :mod:`repro.analyze`  -- pre-simulation model/source linter and RTA.
* :mod:`repro.campaign` -- batch execution, Monte-Carlo and DSE drivers.
* :mod:`repro.baselines`-- untimed and quantum-preemption baselines.
* :mod:`repro.comm`     -- shared-bus interconnect substrate.
* :mod:`repro.codegen`  -- C software generation (the paper's future work).
* :mod:`repro.workloads`-- synthetic task sets and the MPEG-2 SoC model.

The most common names are re-exported here for quick starts::

    from repro import MS, System, TraceRecorder, US
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "kernel.simulator": ("Simulator",),
    "kernel.time": ("FS", "MS", "NS", "PS", "SEC", "US", "format_time",
                    "parse_time"),
    "mcse.builder": ("build_system",),
    "mcse.function": ("Function",),
    "mcse.model": ("System",),
    "trace.recorder": ("TraceRecorder",),
    "trace.timeline": ("TimelineChart",),
}, own=("__version__",))
