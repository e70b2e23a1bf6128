"""The base of agekit's immutable value classes.

Every CLI query is a fresh interpreter, so the value classes are plain
``__slots__`` classes rather than dataclasses: importing ``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decorated class then compiles its generated methods at import.

A value class lists its fields in ``__slots__`` (slot names that start
with ``_`` are caches, not fields), sets them once in a hand-written
``__init__`` through ``object.__setattr__``, and compares field by field:
either through ``_key``, the tuple of its fields, or through its own
``__eq__`` and ``__hash__``.  The hot classes (structures, types,
behaviours, classes, reducts, orbit unions) do the latter, with the hash
computed once and compared before any field.
"""

from __future__ import annotations


class Value:
    """Immutable fields, field-wise equality and hash, ``Name(f=v, ..)`` repr."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if not name.startswith("_"))
        return f"{self.__class__.__qualname__}({fields})"
