"""Finite event trees, market data and file ingestion.

A market lives on a finite rooted tree: each node carries an ask price,
every non-root node carries the conditional probability of being reached
from its parent, and the leaves (all at the same terminal stage) carry a
cash endowment paid at the horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EventTree:
    """Rooted tree with one-step conditional probabilities.

    Nodes are labelled 0..N-1.  ``parent[i]`` is -1 exactly for the root;
    ``cond_prob[i]`` is the probability of reaching node ``i`` from its
    parent (1.0 at the root).  Immutable after construction.
    """

    parent: np.ndarray
    time: np.ndarray
    cond_prob: np.ndarray
    children: tuple = field(init=False, repr=False)
    leaves: np.ndarray = field(init=False, repr=False)
    horizon: int = field(init=False)

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
        root = roots[0]
        if root != 0 or time[root] != 0:
            raise TreeStructureError("root must be node 0 at stage 0")

        children = [[] for _ in range(n)]
        for i in range(n):
            if i == root:
                continue
            p = parent[i]
            if not (0 <= p < n):
                raise TreeStructureError(f"node {i} has invalid parent {p}")
            if time[i] != time[p] + 1:
                raise TreeStructureError(
                    f"node {i} at stage {time[i]} but parent {p} at stage {time[p]}"
                )
            children[p].append(i)
        object.__setattr__(self, "children", tuple(tuple(c) for c in children))

        leaves = np.array([i for i in range(n) if not children[i]], dtype=int)
        horizon = int(time[leaves[0]])
        if np.any(time[leaves] != horizon):
            raise UnevenLeafDepthError("leaves sit at different stages")
        if horizon < 1:
            raise TreeStructureError("tree must have at least one period")
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "horizon", horizon)

        if np.any(cond_prob[1:] <= 0.0):
            bad = int(np.flatnonzero(cond_prob <= 0.0)[0])
            raise ProbabilityMassError(f"nonpositive branch probability at node {bad}")
        for i in range(n):
            if children[i]:
                mass = float(cond_prob[list(children[i])].sum())
                if abs(mass - 1.0) > _PROB_TOL * max(1.0, abs(mass)):
                    raise ProbabilityMassError(
                        f"conditional probabilities sum to {mass:.12g} at node {i}"
                    )

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def n_leaves(self) -> int:
        return self.leaves.size

    def internal_nodes(self) -> np.ndarray:
        """Nodes with at least one child, in id order."""
        return np.array([i for i in range(self.n_nodes) if self.children[i]], dtype=int)

    def path_to_root(self, node: int) -> list[int]:
        """Node ids from ``node`` up to and including the root."""
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
        return path


@dataclass(frozen=True)
class PathMeasure:
    """Unconditional node and leaf probabilities of an :class:`EventTree`."""

    node_prob: np.ndarray
    leaf_prob: np.ndarray


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

    def with_lambda(self, lam: float) -> "MarketSpec":
        return MarketSpec(self.tree, self.ask_price, lam, self.endowment)

    def with_endowment(self, endowment) -> "MarketSpec":
        return MarketSpec(self.tree, self.ask_price, self.lam, endowment)


def path_measure(tree: EventTree) -> PathMeasure:
    """Unconditional probabilities by products of branch probabilities."""
    n = tree.n_nodes
    node_prob = np.empty(n)
    # parents precede children is not guaranteed by id, walk by stage order
    order = np.argsort(tree.time, kind="stable")
    for i in order:
        p = tree.parent[i]
        node_prob[i] = 1.0 if p < 0 else node_prob[p] * tree.cond_prob[i]
    return PathMeasure(node_prob=node_prob, leaf_prob=node_prob[tree.leaves])


def expectation(tree: EventTree, leaf_values) -> float:
    """Expectation of a terminal payoff, ``leaf_values`` aligned with ``tree.leaves``."""
    vals = np.asarray(leaf_values, dtype=float)
    if vals.size != tree.n_leaves:
        raise SchemaError("one value per leaf required")
    return float(path_measure(tree).leaf_prob @ vals)


def load_market(path) -> MarketSpec:
    """Load and validate a market JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return market_from_dict(raw)


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
    for rec in nodes:
        if not isinstance(rec, dict) or "id" not in rec or "price" not in rec:
            raise SchemaError("each node needs 'id' and 'price'")
        i = rec["id"]
        if not isinstance(i, int) or not (0 <= i < n) or i in seen:
            raise SchemaError(f"node ids must be 0..{n - 1} without repeats, got {i!r}")
        seen.add(i)
        par = rec.get("parent", None)
        if par is None:
            parent[i] = -1
            prob[i] = 1.0
        else:
            if not isinstance(par, int):
                raise SchemaError(f"parent of node {i} must be an integer or null")
            if "prob" not in rec:
                raise SchemaError(f"non-root node {i} needs 'prob'")
            parent[i] = par
            prob[i] = float(rec["prob"])
        price[i] = float(rec["price"])

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
    for rec in raw.get("endowment", []):
        if not isinstance(rec, dict) or "leaf" not in rec or "value" not in rec:
            raise SchemaError("each endowment entry needs 'leaf' and 'value'")
        leaf = rec["leaf"]
        if leaf not in leaf_pos:
            raise SchemaError(f"endowment entry for non-leaf node {leaf}")
        endow[leaf_pos[leaf]] = float(rec["value"])

    lam = raw["lambda"]
    if not isinstance(lam, (int, float)):
        raise SchemaError("'lambda' must be a number")
    return MarketSpec(tree=tree, ask_price=price, lam=float(lam), endowment=endow)


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
