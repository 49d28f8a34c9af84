"""Synchronous product of two SMDPs with a residence-time composition operator."""

from __future__ import annotations

from typing import Dict, Tuple

from .distributions import compose_residence
from .errors import LabelMismatch
from .model import Smdp

__all__ = ["composite_name", "compose"]

STAR = "⋆"  # rendered separator of composite state names


def composite_name(left: str, right: str) -> str:
    return f"{left}{STAR}{right}"


def require_same_labels(a: Smdp, b: Smdp):
    if set(a.labels) != set(b.labels):
        raise LabelMismatch(
            f"label sets differ: {sorted(set(a.labels))} vs {sorted(set(b.labels))}")


def compose(u: Smdp, w: Smdp, op: str, project: bool = False) -> Smdp:
    """The synchronous product of u and w.

    Transition probabilities multiply per shared label, residence times
    combine under `op`, and only states reachable from the initial pair are
    kept.  With `project`, the label sets are intersected instead of being
    required to match.
    """
    if project:
        labels = tuple(a for a in u.labels if a in set(w.labels))
        if not labels:
            raise LabelMismatch("label intersection is empty")
    else:
        require_same_labels(u, w)
        labels = u.labels

    initial = (u.initial, w.initial)
    order = [initial]
    seen = {initial}
    transitions: Dict[Tuple[str, str], Dict[str, float]] = {}
    idx = 0
    while idx < len(order):
        su, sw = order[idx]
        idx += 1
        for a in labels:
            row_u = u.succ(su, a)
            row_w = w.succ(sw, a)
            row: Dict[str, float] = {}
            for tu in sorted(row_u, key=u.state_index):
                for tw in sorted(row_w, key=w.state_index):
                    p = row_u[tu] * row_w[tw]
                    if p <= 0.0:
                        continue
                    row[composite_name(tu, tw)] = p
                    if (tu, tw) not in seen:
                        seen.add((tu, tw))
                        order.append((tu, tw))
            if row:
                transitions[(composite_name(su, sw), a)] = row

    states = [composite_name(su, sw) for su, sw in order]
    residence = {
        composite_name(su, sw): compose_residence(op, u.residence_of(su), w.residence_of(sw))
        for su, sw in order
    }
    return Smdp(labels, states, composite_name(*initial), residence, transitions)
