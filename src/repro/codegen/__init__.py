"""Software generation from validated models (the paper's §6 future work)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "api": ("RTOS_API_H", "RTOS_PORT_POSIX_C"),
    "c_writer": ("CWriter", "c_identifier", "generate_c"),
})
