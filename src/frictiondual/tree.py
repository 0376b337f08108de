"""Finite event trees, market data and file ingestion.

A market lives on a finite rooted tree: each node carries an ask price,
every non-root node carries the conditional probability of being reached
from its parent, and the leaves (all at the same terminal stage) carry a
cash endowment paid at the horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np


class MarketValidationError(ValueError):
    """Base class for market-file and tree validation failures."""


class SchemaError(MarketValidationError):
    """File does not match the expected JSON layout."""


class TreeStructureError(MarketValidationError):
    """Node ids, parents or stage indices are inconsistent."""


class ProbabilityMassError(MarketValidationError):
    """Conditional probabilities of some sibling set do not sum to 1."""


class NonpositivePriceError(MarketValidationError):
    """An ask price is zero or negative."""


class LambdaRangeError(MarketValidationError):
    """Transaction-cost level outside [0, 1)."""


class UnevenLeafDepthError(MarketValidationError):
    """Leaves do not all sit at the same terminal stage."""


_PROB_TOL = 1e-12


def _equal_by_value(a, b):
    """``a == b`` for dataclasses holding arrays: the compared fields of
    one type agree, arrays elementwise (:func:`numpy.array_equal`)."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in fields(a) if f.compare))


@dataclass(frozen=True)
class EventTree:
    """Rooted tree with one-step conditional probabilities.

    Nodes are labelled 0..N-1.  ``parent[i]`` is -1 exactly for the root;
    ``cond_prob[i]`` is the probability of reaching node ``i`` from its
    parent (1.0 at the root).  Immutable after construction.

    Construction also fixes the path structure every program on the tree
    reads: ``internal`` (nodes with a child, in id order), ``stages``
    (the nodes of each stage ``0..horizon``, in id order), the
    unconditional probabilities ``node_prob`` and ``leaf_prob`` (aligned
    with ``leaves``), and the leaf-by-node incidence ``on_path``:
    ``on_path[l, n]`` is true when node ``n`` lies on the path from the
    root to leaf ``leaves[l]``.
    """

    parent: np.ndarray
    time: np.ndarray
    cond_prob: np.ndarray
    leaves: np.ndarray = field(init=False, repr=False)
    horizon: int = field(init=False)
    internal: np.ndarray = field(init=False, repr=False, compare=False)
    stages: tuple = field(init=False, repr=False, compare=False)
    node_prob: np.ndarray = field(init=False, repr=False, compare=False)
    leaf_prob: np.ndarray = field(init=False, repr=False, compare=False)
    on_path: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _equal_by_value

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=int)
        time = np.asarray(self.time, dtype=int)
        cond_prob = np.asarray(self.cond_prob, dtype=float)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "cond_prob", cond_prob)

        n = parent.size
        if time.size != n or cond_prob.size != n:
            raise TreeStructureError("parent/time/cond_prob length mismatch")
        roots = np.flatnonzero(parent < 0)
        if roots.size != 1:
            raise TreeStructureError(f"expected exactly one root, found {roots.size}")
        if roots[0] != 0 or time[0] != 0:
            raise TreeStructureError("root must be node 0 at stage 0")

        # the root is node 0 and no other parent is negative
        bad_parent = parent[1:] >= n
        bad_stage = time[1:] != time[np.where(bad_parent, 0, parent[1:])] + 1
        if np.any(bad_parent | bad_stage):
            i = 1 + int(np.argmax(bad_parent | bad_stage))
            p = parent[i]
            if bad_parent[i - 1]:
                raise TreeStructureError(f"node {i} has invalid parent {p}")
            raise TreeStructureError(
                f"node {i} at stage {time[i]} but parent {p} at stage {time[p]}"
            )

        has_child = np.zeros(n, dtype=bool)
        has_child[parent[1:]] = True
        leaves = np.flatnonzero(~has_child)
        horizon = int(time[leaves[0]])
        if np.any(time[leaves] != horizon):
            raise UnevenLeafDepthError("leaves sit at different stages")
        if horizon < 1:
            raise TreeStructureError("tree must have at least one period")
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "horizon", horizon)

        positive = np.isfinite(cond_prob) & (cond_prob > 0.0)
        if not np.all(positive[1:]):
            raise ProbabilityMassError("nonpositive or non-finite branch probability "
                                       f"at node {int(np.argmax(~positive))}")
        mass = np.bincount(parent[1:], weights=cond_prob[1:], minlength=n)
        off = has_child & (np.abs(mass - 1.0) > _PROB_TOL * np.maximum(1.0, np.abs(mass)))
        if np.any(off):
            i = int(np.argmax(off))
            raise ProbabilityMassError(
                f"conditional probabilities sum to {mass[i]:.12g} at node {i}"
            )

        stages = tuple(np.flatnonzero(time == t) for t in range(horizon + 1))
        node_prob = np.ones(n)
        for at in stages[1:]:
            node_prob[at] = node_prob[parent[at]] * cond_prob[at]
        # every leaf sits at the horizon, so horizon steps up reach the root
        on_path = np.zeros((leaves.size, n), dtype=bool)
        rows, ancestor = np.arange(leaves.size), leaves
        for _ in range(horizon + 1):
            on_path[rows, ancestor] = True
            ancestor = parent[ancestor]
        object.__setattr__(self, "internal", np.flatnonzero(has_child))
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "node_prob", node_prob)
        object.__setattr__(self, "leaf_prob", node_prob[leaves])
        object.__setattr__(self, "on_path", on_path)

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def n_leaves(self) -> int:
        return self.leaves.size


@dataclass(frozen=True)
class MarketSpec:
    """Event tree plus ask prices, cost level and terminal endowment.

    ``ask_price`` is indexed by node id; ``endowment`` is aligned with
    ``tree.leaves``.
    """

    tree: EventTree
    ask_price: np.ndarray
    lam: float
    endowment: np.ndarray

    __eq__ = _equal_by_value

    def __post_init__(self):
        ask = np.asarray(self.ask_price, dtype=float)
        endow = np.asarray(self.endowment, dtype=float)
        object.__setattr__(self, "ask_price", ask)
        object.__setattr__(self, "endowment", endow)
        if ask.size != self.tree.n_nodes:
            raise SchemaError("one ask price per node required")
        if np.any(ask <= 0.0) or not np.all(np.isfinite(ask)):
            bad = int(np.flatnonzero(~(ask > 0.0) | ~np.isfinite(ask))[0])
            raise NonpositivePriceError(f"nonpositive ask price at node {bad}")
        if not (0.0 <= self.lam < 1.0):
            raise LambdaRangeError(f"lambda={self.lam} outside [0, 1)")
        if endow.size != self.tree.n_leaves:
            raise SchemaError("one endowment value per leaf required")
        if not np.all(np.isfinite(endow)):
            raise SchemaError("endowment must be finite at every leaf")

    @property
    def bid_price(self) -> np.ndarray:
        return (1.0 - self.lam) * self.ask_price

    def with_endowment(self, endowment) -> "MarketSpec":
        return MarketSpec(self.tree, self.ask_price, self.lam, endowment)


def load_market(path) -> MarketSpec:
    """Load and validate a market JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return market_from_dict(raw)


def _number(value, what: str) -> float:
    """``value`` as a float, or :class:`SchemaError` if it is no JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    return float(value)


def _is_index(value) -> bool:
    """Whether ``value`` is a JSON integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def market_from_dict(raw: dict) -> MarketSpec:
    """Build a :class:`MarketSpec` from the JSON object layout."""
    if not isinstance(raw, dict):
        raise SchemaError("top-level JSON object expected")
    for key in ("lambda", "nodes"):
        if key not in raw:
            raise SchemaError(f"missing field '{key}'")
    nodes = raw["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError("'nodes' must be a nonempty list")
    n = len(nodes)
    seen = set()
    parent = np.full(n, -2, dtype=int)
    prob = np.zeros(n)
    price = np.zeros(n)
    for k, rec in enumerate(nodes):
        if not isinstance(rec, dict) or "id" not in rec or "price" not in rec:
            raise SchemaError("each node needs 'id' and 'price'")
        i = rec["id"]
        if not _is_index(i) or not (0 <= i < n) or i in seen:
            raise SchemaError(f"node ids must be 0..{n - 1} without repeats, "
                              f"got {i!r} in node record {k}")
        seen.add(i)
        par = rec.get("parent", None)
        if par is None:
            parent[i] = -1
            prob[i] = 1.0
        else:
            if not _is_index(par):
                raise SchemaError(f"parent of node {i} must be an integer or null")
            if "prob" not in rec:
                raise SchemaError(f"non-root node {i} needs 'prob'")
            parent[i] = par
            prob[i] = _number(rec["prob"], f"'prob' of node {i}")
        price[i] = _number(rec["price"], f"'price' of node {i}")

    # stage indices are derived by walking parent links to the root
    time = np.zeros(n, dtype=int)
    for i in range(n):
        depth, node = 0, i
        while parent[node] >= 0:
            if parent[node] >= n:
                raise TreeStructureError(f"node {node} has invalid parent {parent[node]}")
            node = int(parent[node])
            depth += 1
            if depth > n:
                raise TreeStructureError(f"parent cycle reached from node {i}")
        time[i] = depth

    tree = EventTree(parent=parent, time=time, cond_prob=prob)

    endow = np.zeros(tree.n_leaves)
    leaf_pos = {int(l): k for k, l in enumerate(tree.leaves)}
    filled = set()
    entries = raw.get("endowment", [])
    if not isinstance(entries, list):
        raise SchemaError("'endowment' must be a list")
    for rec in entries:
        if not isinstance(rec, dict) or "leaf" not in rec or "value" not in rec:
            raise SchemaError("each endowment entry needs 'leaf' and 'value'")
        leaf = rec["leaf"]
        if not _is_index(leaf) or leaf not in leaf_pos:
            raise SchemaError(f"endowment entry for non-leaf node {leaf!r}")
        if leaf in filled:
            raise SchemaError(f"more than one endowment entry for leaf {leaf}")
        filled.add(leaf)
        endow[leaf_pos[leaf]] = _number(rec["value"], f"endowment 'value' at leaf {leaf}")

    lam = _number(raw["lambda"], "'lambda'")
    return MarketSpec(tree=tree, ask_price=price, lam=lam, endowment=endow)


def market_to_dict(market: MarketSpec) -> dict:
    tree = market.tree
    nodes = []
    for i in range(tree.n_nodes):
        rec: dict = {"id": int(i), "price": float(market.ask_price[i])}
        if tree.parent[i] < 0:
            rec["parent"] = None
        else:
            rec["parent"] = int(tree.parent[i])
            rec["prob"] = float(tree.cond_prob[i])
        nodes.append(rec)
    endow = [
        {"leaf": int(l), "value": float(v)}
        for l, v in zip(tree.leaves, market.endowment)
    ]
    return {"lambda": float(market.lam), "nodes": nodes, "endowment": endow}


def save_market(market: MarketSpec, path) -> None:
    """Write a market to JSON; round-trips bit-exactly through ``load_market``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(market_to_dict(market), fh, indent=2)
        fh.write("\n")
