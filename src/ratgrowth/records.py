"""Record classes: the part of ``dataclasses`` that the package uses.

``@record`` reads a class's annotations once, in order, as its fields and
installs ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` built as
closures over the field names; ``@record(frozen=True)`` also refuses
assignment and deletion.  A record keeps what a dataclass gives:

- positional and keyword construction, class-body defaults, and a
  ``__post_init__`` that runs after the fields are set;
- equality only between instances of one class, on the fields in order;
  fields named in ``hidden`` are left out of equality, hashing and repr;
- a hash of the compared fields on frozen records, ``__hash__ = None`` on
  mutable ones;
- the dataclass repr, ``Name(field=value, ...)``;
- pickling and ``copy.deepcopy`` through the instance ``__dict__``; a
  frozen record with ``__slots__`` gets a ``__reduce__`` through ``__init__``.

Methods that the class body defines itself are kept.  ``cls._fields`` is
the tuple of field names.

A dataclass compiles fresh source for each of these methods, one ``exec``
per method and class, and importing ``dataclasses`` imports ``inspect``;
here every class shares the same code objects.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls=None, /, *, frozen=False, hidden=()):
    """Class decorator: make cls a record of its annotated fields."""
    if cls is None:
        return lambda cls: _install(cls, frozen, hidden)
    return _install(cls, frozen, hidden)


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, names, defaults, args, kwargs) -> tuple:
    """The field values, in order, of a call that is not exactly one
    positional argument per field: keywords, then the class-body defaults
    of the last fields, fill the fields after the positional ones."""
    if not kwargs and len(names) - len(defaults) <= len(args) < len(names):
        return args + tuple(defaults.values())[len(args) - len(names) :]
    values = {**defaults, **kwargs}
    values.update(zip(names, args))
    if len(args) <= len(names) == len(values) and kwargs.keys().isdisjoint(names[: len(args)]):
        try:
            return tuple(map(values.__getitem__, names))
        except KeyError:  # an unknown keyword in place of a field
            pass
    raise TypeError(
        f"{cls.__name__}() takes the fields {', '.join(names)}; "
        f"got {len(args)} positional and the keywords {sorted(kwargs)}"
    )


def _install(cls, frozen, hidden):
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    slots = own.get("__slots__", ())
    defaults = {name: own[name] for name in names if name in own and name not in slots}
    if names[len(names) - len(defaults) :] != tuple(defaults):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    shown = [name for name in names if name not in hidden]
    get = attrgetter(*shown)
    key = get if len(shown) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        # identity implies equality, as it does for a tuple of the fields
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in shown])})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        methods.update(__setattr__=_refuse_set, __delattr__=_refuse_del)
    if frozen and slots:  # the default slot restore would go through the refusing __setattr__
        methods["__reduce__"] = lambda self: (cls, tuple(getattr(self, name) for name in names))
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    if own.get("__hash__") is None:
        # the body defines no hash of its own (a body __eq__ leaves None)
        cls.__hash__ = __hash__ if frozen else None
    cls._fields = names
    return cls
