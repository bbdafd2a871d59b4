"""User-facing interfaces: CLI, interactive shell, and REST (§7)."""
from importlib import import_module

from .rest import RestServer, create_server, handle_check_request

__all__ = ["RestServer", "SQLCheckShell", "cli_main", "create_server", "handle_check_request"]

#: Names loaded on first access.  Importing the package must not import
#: ``.cli`` (the shell imports it too): ``python -m repro.interfaces.cli``
#: imports this package first, and finding the module already loaded makes
#: runpy warn before running it as ``__main__``.
_LAZY = {"cli_main": (".cli", "main"), "SQLCheckShell": (".shell", "SQLCheckShell")}


def __getattr__(name: str):
    try:
        module, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module, __name__), attribute)
