"""The base of agekit's immutable value classes.

Every CLI query is a fresh interpreter, so the value classes are plain
``__slots__`` classes rather than dataclasses: importing ``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decorated class then compiles its generated methods at import.

A value class lists its fields once, in ``__slots__``: its fields are the
slot names across its bases and itself, in order, that do not start with
``_`` (those are caches).  From them `Value` derives construction by
position or keyword, with optional fields taken from the class's
``_defaults``; ``_key``, the tuple of the fields; equality and hash over
that tuple; and the ``Name(field=value, ..)`` repr.  A class whose
instances are built in hot loops keeps its own validating ``__init__`` and
stores ``_hash``, the hash of its fields, once: equality then compares the
hashes before any field, and ``__hash__`` returns it.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable fields, field-wise equality and hash, ``Name(f=v, ..)`` repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}  # field name -> value when the caller omits it
    _hashed = False  # whether instances store the hash of their fields in _hash

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for c in reversed(cls.__mro__)
                 for name in c.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        cls._hashed = "_hash" in slots
        # the fields of an instance: a tuple, or the bare value of a sole field
        cls._get_fields = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        name = self.__class__.__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        init = object.__setattr__
        for field in fields:
            if field in values:
                init(self, field, values[field])
            elif field in self._defaults:
                init(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name}() missing field {field!r}")

    def _key(self) -> tuple:
        """The fields, in slot order."""
        key = self._get_fields(self)
        return key if len(self._fields) > 1 else (key,)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hashed and self._hash != other._hash:
            return False
        get = self._get_fields
        return get(self) == get(other)

    def __hash__(self) -> int:
        try:  # lru_caches hash the hot classes on every lookup: no flag test first
            return self._hash
        except AttributeError:
            return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
