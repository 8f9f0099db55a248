"""Value domain of the modeling language.

Programs manipulate plain Python values (small ints, booleans, ``None``
as the null pointer, and interned symbolic constants such as ``EMPTY``)
plus heap references.  References are a dedicated tuple subtype so that
state canonicalization can find and renumber every pointer embedded in
globals, locals and node fields, and so that a reference can never
collide (in hashing or equality) with an ordinary integer.

Inside state keys, bools are stored tagged (:class:`KeyBool`), so that
key equality is type-exact; programs only ever see plain values.
"""

from __future__ import annotations

from typing import Any, Optional


class Ref(tuple):
    """A reference to a heap node (by index).

    Implemented as a tagged tuple: cheap to hash, structurally
    comparable, and distinguishable from data integers.
    """

    __slots__ = ()

    def __new__(cls, index: int) -> "Ref":
        return tuple.__new__(cls, ("ref", index))

    @property
    def index(self) -> int:
        return self[1]

    def __getnewargs__(self):
        # Without this, pickle would rebuild via Ref(("ref", index)) --
        # the tuple-subclass default passes the whole tuple to __new__ --
        # yielding a double-tagged, unequal reference.  Checkpoint
        # serialization (repro.lang.checkpoint) depends on round-tripping.
        return (self[1],)

    def __repr__(self) -> str:
        return f"Ref({self[1]})"


#: The null pointer.
NULL: Optional[Ref] = None


class Symbol(str):
    """An interned symbolic constant (e.g. ``EMPTY``, ``FULL``).

    A subtype of ``str`` so symbols print readably in actions and
    diagnostics while remaining distinguishable from program data ints.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


#: Return value for empty-container method calls (queues, stacks).
EMPTY = Symbol("EMPTY")

#: Return value used by set-like objects.
TRUE = True
FALSE = False


def is_ref(value: Any) -> bool:
    """Whether ``value`` is a heap reference."""
    return type(value) is Ref


class KeyBool:
    """How a bool is stored inside a state key.

    Python's numeric tower makes ``False == 0`` and ``hash(False) ==
    hash(0)``, so a state holding a CAS result and one holding the
    constant ``0`` in the same slot would collapse in every ``==``-keyed
    table -- and behave differently afterwards (``Lock`` tests ``is not
    False``).  State construction therefore stores every bool as one of
    the two singletons below, which equal nothing but themselves; see
    :func:`tag` and :func:`untag`.  They repr like the bools they stand
    for and pickle by name, so unpickled keys keep identity.
    """

    __slots__ = ("value", "_name")

    def __init__(self, value: bool, name: str) -> None:
        self.value = value
        self._name = name

    def __repr__(self) -> str:
        return repr(self.value)

    def __reduce__(self) -> str:
        return self._name


KEY_TRUE = KeyBool(True, "KEY_TRUE")
KEY_FALSE = KeyBool(False, "KEY_FALSE")


def tag(value: Any) -> Any:
    """``value`` as stored in a state key: bools, at any tuple depth,
    replaced by :data:`KEY_TRUE` / :data:`KEY_FALSE` (idempotent)."""
    if value is True:
        return KEY_TRUE
    if value is False:
        return KEY_FALSE
    if type(value) is tuple:
        return tuple([tag(item) for item in value])
    return value


def untag(value: Any) -> Any:
    """Inverse of :func:`tag`: the plain value programs compute with."""
    if value is KEY_FALSE:
        return False
    if value is KEY_TRUE:
        return True
    if type(value) is tuple:
        return tuple([untag(item) for item in value])
    return value
