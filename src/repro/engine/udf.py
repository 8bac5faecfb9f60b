"""Object-relational extensibility: user-defined types and functions.

Paper Section 5.1: *"we first use the object-relational facilities of our
query processor to define datatypes for our synopsis data structures ... We
also create user-defined functions to perform various kinds of relational
algebra operations on these synopsis data structures."*

This registry is that facility.  The synopsis subpackage registers a
``Synopsis`` UDT plus ``project`` / ``union_all`` / ``equijoin`` / ``total``
UDFs (see :func:`repro.synopses.register_synopsis_udfs`), after which shadow
queries referencing those functions run inside the ordinary query engine —
Data Triage never touches the engine core.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


class UDFError(KeyError):
    """Raised when resolving an unregistered function or type."""


@dataclass(frozen=True)
class FunctionSignature:
    """Declared signature of a UDF (informational, used by EXPLAIN/sqlgen)."""

    name: str
    arg_types: tuple[str, ...]
    return_type: str

    def to_sql(self) -> str:
        """Render as a ``CREATE FUNCTION`` statement (PostgreSQL style)."""
        args = ", ".join(self.arg_types)
        return (
            f"CREATE FUNCTION {self.name}({args}) RETURNS {self.return_type} AS ...;"
        )


@dataclass
class UDFRegistry:
    """Mutable registry of user-defined functions and types.

    Function names are case-insensitive.  The registry doubles as the
    ``functions`` mapping consumed by
    :meth:`repro.engine.expressions.Expression.bind`.
    """

    _functions: dict[str, Callable] = field(default_factory=dict)
    _signatures: dict[str, FunctionSignature] = field(default_factory=dict)
    _types: dict[str, type] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def register_function(
        self,
        name: str,
        fn: Callable,
        arg_types: tuple[str, ...] = (),
        return_type: str = "synopsis",
        replace: bool = False,
    ) -> None:
        key = name.lower()
        if key in self._functions and not replace:
            raise UDFError(f"function {name!r} already registered")
        self._functions[key] = fn
        self._signatures[key] = FunctionSignature(key, arg_types, return_type)

    def function(self, name: str) -> Callable:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise UDFError(f"no function {name!r} registered") from None

    def signature(self, name: str) -> FunctionSignature:
        try:
            return self._signatures[name.lower()]
        except KeyError:
            raise UDFError(f"no function {name!r} registered") from None

    def has_function(self, name: str) -> bool:
        return name.lower() in self._functions

    # The expression binder expects a plain mapping.
    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def __getitem__(self, name: str) -> Callable:
        return self.function(name)

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def register_type(self, name: str, cls: type, replace: bool = False) -> None:
        key = name.lower()
        if key in self._types and not replace:
            raise UDFError(f"type {name!r} already registered")
        self._types[key] = cls

    def type(self, name: str) -> type:
        try:
            return self._types[name.lower()]
        except KeyError:
            raise UDFError(f"no type {name!r} registered") from None

    def has_type(self, name: str) -> bool:
        return name.lower() in self._types

    def ddl(self) -> list[str]:
        """CREATE FUNCTION statements for everything registered (for docs/tests)."""
        return [sig.to_sql() for sig in self._signatures.values()]
