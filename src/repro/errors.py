"""Exception hierarchy for pyrtos-sc.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
kernel, MCSE and RTOS layers each get a dedicated subtree because the
*reason* a simulation fails differs a lot between "your model is
structurally wrong" (caught at build time) and "the simulated system
misbehaved" (caught at run time).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulation kernel detected an illegal condition at run time."""


class ProcessError(SimulationError):
    """A simulation process performed an illegal operation.

    Typical causes: yielding an object that is not a wait request, calling
    :func:`wait` from outside a process, or re-starting a terminated
    process.
    """


class ProcessKilled(BaseException):
    """Thrown *into* a process generator to terminate it.

    Deliberately derived from :class:`BaseException` (like
    :class:`GeneratorExit`) so that well-meaning ``except Exception``
    blocks inside model code do not swallow a kill request.
    """


class SchedulerError(SimulationError):
    """The discrete-event scheduler reached an inconsistent state."""


class ModelError(ReproError):
    """A model is structurally invalid (bad wiring, duplicate names...)."""


class BuildError(ModelError):
    """A declarative system specification could not be elaborated."""


class RTOSError(ReproError):
    """The RTOS model detected an illegal condition."""


class TaskStateError(RTOSError):
    """An RTOS task attempted an illegal state transition."""


class DeadlockError(SimulationError):
    """Simulation ended while processes are still blocked on each other.

    Raised only when the caller asked :meth:`Simulator.run` to treat
    starvation as an error (``error_on_deadlock=True``).
    """


class ConstraintViolation(ReproError):
    """A declarative timing constraint was violated during simulation.

    Raised by :mod:`repro.trace.constraints` when a constraint is
    configured with ``hard=True``; soft constraints are merely recorded.
    """


class TraceError(ReproError):
    """Trace recording or rendering failed."""


class VerifyError(ReproError):
    """The model checker was misused or a replay diverged.

    Raised by :mod:`repro.verify` when a scripted counterexample replay
    encounters a choice point that does not match the recorded schedule
    (the model changed under the trace), or when exploration options are
    inconsistent.
    """


class CampaignError(ReproError):
    """A batch campaign could not be dispatched or completed.

    Raised by :mod:`repro.campaign` when an experiment cannot be shipped
    to worker processes (not picklable), when cache keying fails, or --
    in strict mode -- when individual runs failed after all retries.
    """


class CorpusError(ReproError):
    """A scenario generator, batch matrix or fuzz loop was misused.

    Raised by :mod:`repro.corpus` for unknown generator kinds, malformed
    batch-matrix documents, and corrupt or unreproducible seed files.
    """


class RunTimeout(BaseException):
    """A campaign run exceeded its per-run wall-clock timeout.

    Like :class:`ProcessKilled`, deliberately derived from
    :class:`BaseException` so that ``except Exception`` blocks inside
    model code cannot swallow the deadline signal; the campaign runner
    converts it into a structured ``RunFailure`` record.
    """
