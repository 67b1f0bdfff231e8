"""The key-material audit: which dataclass fields can reach a secret type.

An oracle of the tests, kept apart from the code it checks: the RAN-side
types must reach neither the root secret nor its HMAC states.
"""

import dataclasses
import typing

from randelsim.crypto import RootSecret


def audit_type_for_root_secret(tp: type, _seen: set | None = None,
                               target: type = RootSecret) -> list[str]:
    """Structural audit: dataclass field paths reaching ``target``, if any."""
    seen = _seen if _seen is not None else set()
    if tp in seen:
        return []
    seen.add(tp)
    hits: list[str] = []
    if tp is target:
        return ["<self>"]
    if not dataclasses.is_dataclass(tp):
        return []
    # an annotation that does not resolve raises: it cannot be audited
    hints = typing.get_type_hints(tp)
    for f in dataclasses.fields(tp):
        for sub in _walk_types(hints[f.name]):
            if sub is target:
                hits.append(f.name)
            elif dataclasses.is_dataclass(sub):
                hits.extend(f"{f.name}.{h}" for h in
                            audit_type_for_root_secret(sub, seen, target))
    return hits


def _walk_types(tp) -> list[type]:
    args = typing.get_args(tp)
    if args:
        out = []
        for a in args:
            out.extend(_walk_types(a))
        return out
    return [tp] if isinstance(tp, type) else []
