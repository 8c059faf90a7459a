"""Model-independent crystal machinery.

A crystal model exposes a rank k, a weight map into Z^k, and partial raising
and lowering operators e_i, f_i for node indices i in {1, ..., k-1}; elements
are opaque hashable values owned by the model.  Everything else here is
generic over that contract: connected components, extremal elements, the
Schutzenberger involution, Kashiwara reflections, axiom and morphism
verifiers, characters, and DOT export.

Absent results are represented by None, never by sentinel elements.
"""

from collections import Counter
from dataclasses import dataclass

from .base import Weight, add_root, intervals, pairing, theta_on_nodes

# The value of an edge slot no walk has read yet.  Not None, which means
# "no edge", and not a value any model could use as an element.
_UNFILLED = object()


class Crystal:
    """Abstract crystal contract.  Subclasses implement weight, e, f and may
    override eps/phi with model-specific formulas (the default counts
    operator applications).
    """

    rank: int

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        self.rank = rank
        self._nodes = tuple(range(1, rank))
        # Slot of each interval's involution image in an edge record, after
        # the edge slots and in `intervals(rank)` order; fixed here, so it
        # is part of the model, not a memo.
        self._xi_slot = {g.nodes: 2 * rank - 1 + n
                         for n, g in enumerate(intervals(rank))}
        # The only memo: one edge record per element value, shared by the
        # walks and transports of every interval and never invalidated.
        # record[0] is the one object kept for that value; record[2j - 1] /
        # record[2j] hold e_j / f_j of it: None (no edge), the record of
        # the result, or _UNFILLED until a walk first needs them; and
        # record[_xi_slot[nodes]] holds the record of its image under that
        # interval's involution, or _UNFILLED until `schuetzenberger` has
        # transported its whole component.
        self._edges: dict = {}

    # -- required model surface ------------------------------------------
    def weight(self, b) -> Weight:
        raise NotImplementedError

    def e(self, i: int, b):
        raise NotImplementedError

    def f(self, i: int, b):
        raise NotImplementedError

    # -- derived quantities ----------------------------------------------
    def eps(self, i: int, b) -> int:
        """Number of times e_i applies before hitting None."""
        n = 0
        x = self.e(i, b)
        while x is not None:
            n += 1
            x = self.e(i, x)
        return n

    def phi(self, i: int, b) -> int:
        n = 0
        x = self.f(i, b)
        while x is not None:
            n += 1
            x = self.f(i, x)
        return n

    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    def interval_involution(self, b, nodes):
        """Schutzenberger involution of the restriction to `nodes`, as the
        cactus actions compute it.  Models with a local formula override
        this; the default transports along the component's edges."""
        return schuetzenberger(self, b, nodes)

    def canon(self, b) -> str:
        """Canonical element string; deterministic, used for DOT ids and
        report witnesses."""
        return repr(b)


@dataclass(frozen=True)
class Component:
    """A connected component of the graph restricted to some node subset."""
    elements: frozenset
    highest: object
    lowest: object


@dataclass
class Report:
    """Outcome of a verifier: pass, or fail with the first witness found."""
    name: str
    instance: dict
    checked: int
    status: str
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"name": self.name, "instance": self.instance,
                "checked": self.checked, "status": self.status,
                "witness": self.witness}


def run_checks(name: str, instance: dict, witnesses) -> Report:
    """The one reporting rule of the verifiers.

    `witnesses` yields one item per check, in check order: None for a check
    that passed, or the witness string of one that failed.  The report
    fails with the first witness and is not read past it, so a check with
    several conditions may yield the witness of the first that fails and
    then None; `checked` is the number of items read.
    """
    checked = 0
    for checked, witness in enumerate(witnesses, 1):
        if witness is not None:
            return Report(name, instance, checked, "fail", witness)
    return Report(name, instance, checked, "pass")


def _walk(crystal: Crystal, b, nodes: tuple[int, ...]):
    """One BFS from b over the e/f edges coloured by `nodes`.

    Reads e_j / f_j of each element from slots 2j - 1 / 2j of its edge
    record and calls the operator only on a slot no earlier walk filled, so
    over all intervals every (element, node, direction) costs one operator
    call; every result is replaced by the canonical object of its value.
    Notes each element without an e or an f edge as it goes and returns
    (the component's records, record of its highest, record of its lowest);
    it memoizes nothing but the edge records, and a record it makes has
    every edge and image slot _UNFILLED.  A component without exactly one
    highest-weight and one lowest-weight element means the model is
    broken, and raises.
    """
    if nodes and not 1 <= min(nodes) <= max(nodes) < crystal.rank:
        raise ValueError(f"nodes {nodes} out of range 1..{crystal.rank - 1}")
    blank = [_UNFILLED] * (2 * crystal.rank - 2 + len(crystal._xi_slot))
    steps = [(j, 2 * j - 1) for j in nodes]
    edges = crystal._edges
    e, f = crystal.e, crystal.f

    def record(x):
        rec = edges.get(x)
        if rec is None:
            rec = edges[x] = [x, *blank]
        return rec

    first = record(b)
    seen = {id(first): first}
    frontier = [first]
    highs = []
    lows = []
    while frontier:
        rec = frontier.pop()
        x = rec[0]
        raised = lowered = False
        for j, s in steps:
            y = rec[s]
            if y is _UNFILLED:
                y = e(j, x)
                y = rec[s] = None if y is None else record(y)
            if y is not None:
                raised = True
                if id(y) not in seen:
                    seen[id(y)] = y
                    frontier.append(y)
            y = rec[s + 1]
            if y is _UNFILLED:
                y = f(j, x)
                y = rec[s + 1] = None if y is None else record(y)
            if y is not None:
                lowered = True
                if id(y) not in seen:
                    seen[id(y)] = y
                    frontier.append(y)
        if not raised:
            highs.append(rec)
        if not lowered:
            lows.append(rec)
    if len(highs) != 1 or len(lows) != 1:
        raise ValueError(
            f"component of {crystal.canon(b)} on nodes {nodes} has "
            f"{len(highs)} highest / {len(lows)} lowest weight elements")
    return seen.values(), highs[0], lows[0]


def component(crystal: Crystal, b, nodes: tuple[int, ...]) -> Component:
    """Connected component of b under the e/f edges coloured by `nodes`.

    Raises ValueError unless there is exactly one highest-weight and one
    lowest-weight element; a violation means the model is broken.  Nothing
    is memoized but the edge records, which the walk shares with
    `schuetzenberger`, so after a transport it calls no operator.
    """
    records, top, low = _walk(crystal, b, tuple(nodes))
    return Component(frozenset(rec[0] for rec in records), top[0], low[0])


def components(crystal: Crystal, elements, nodes: tuple[int, ...]) -> list[Component]:
    """Partition a closed element set into connected components.

    Raises if the set is not closed under the coloured edges (caller
    precondition) and orders the result by canonical highest-element string.
    """
    nodes = tuple(nodes)
    pool = set(elements)
    out = []
    for b in elements:
        if b not in pool:
            continue
        comp = component(crystal, b, nodes)
        if not comp.elements <= pool:
            stray = next(iter(comp.elements - pool))
            raise ValueError(
                f"element set not closed under edges: reached {crystal.canon(stray)}")
        pool -= comp.elements
        out.append(comp)
    out.sort(key=lambda c: crystal.canon(c.highest))
    return out


def to_highest_path(crystal: Crystal, b, nodes: tuple[int, ...]):
    """Greedy raising, scanning `nodes` in the given order; returns
    (highest, path).

    The recorded path lists the applied node indices in application order,
    so lowering along the reversed path from the highest element returns b.
    """
    step = crystal.e
    path = []
    x = b
    while True:
        for j in nodes:
            y = step(j, x)
            if y is not None:
                x = y
                path.append(j)
                break
        else:
            return x, tuple(path)


def schuetzenberger(crystal: Crystal, b, nodes) -> object:
    """Schutzenberger involution of the restriction to `nodes`, applied to b.

    Computed per component by transport: the highest element maps to the
    lowest, and the image propagates along every lowering edge from the
    highest element: the image of f_j(x) is e_t of the image of x, where
    t = theta_on_nodes(nodes, j).  Greedy raising from any element ends at
    the one highest, so a component those edges do not cover is a broken
    model, and raises.  One walk reads the component's edges from
    the model's edge records, which the walks of every node set share, and
    the image of every element of the component is written into the
    interval's image slot of its record, which is what makes exhaustive
    verification sweeps affordable: a later call on any of them reads one
    slot.  It builds no `Component`.  Path independence against the
    directed single-path variant is a tested property, not an assumption.

    An empty node set gives the identity; any other node set that is not
    one interval (p, ..., q-1) raises ValueError and writes no image slot.
    A transport that raises resets every image slot it wrote, so a repeat
    call raises again.
    """
    nodes = tuple(nodes)
    if not nodes:
        return b
    slot = crystal._xi_slot.get(nodes)
    if slot is not None:
        rec = crystal._edges.get(b)
        if rec is not None:
            img = rec[slot]
            if img is not _UNFILLED:
                return img[0]
    elif nodes != tuple(range(nodes[0], nodes[-1] + 1)):
        raise ValueError(f"nodes {nodes} do not form one interval")
    # an interval outside 1..rank-1 has no slot, and the walk refuses it
    records, top, low = _walk(crystal, b, nodes)
    twisted = [(2 * j, 2 * theta_on_nodes(nodes, j) - 1) for j in nodes]
    filled = []  # the records whose image slot this call wrote
    if top[slot] is _UNFILLED:  # filled only where e and f are not inverse
        top[slot] = low
        filled.append(top)
    try:
        for x in filled:
            img = x[slot]
            if img is None:
                raise ValueError(
                    f"involution transport broke inside the component of "
                    f"{crystal.canon(b)} on nodes {nodes}")
            for s, t in twisted:
                y = x[s]  # f_j(x), whose image is e_t(img)
                if y is not None and y[slot] is _UNFILLED:
                    y[slot] = img[t]
                    filled.append(y)
        if len(filled) != len(records):
            raise ValueError("involution transport missed part of a component")
    except BaseException:
        for x in filled:
            x[slot] = _UNFILLED
        raise
    return crystal._edges[b][slot][0]


def schuetzenberger_by_path(crystal: Crystal, b, nodes, order: str = "smallest"):
    """Single-path variant: raise b to the highest element recording the
    node sequence (smallest or largest index first), then replay the
    sequence from the lowest element backwards with twisted indices.

    Exists as an independent route for the path-independence checks.  The
    lowest element is the involution's image of the highest, taken from
    the walk's lowest record, so a memo hit costs no walk.
    """
    if order not in ("smallest", "largest"):
        raise ValueError(f"unknown path order {order!r}; "
                         f"use 'smallest' or 'largest'")
    nodes = tuple(nodes)
    if not nodes:
        return b
    scan = nodes if order == "smallest" else nodes[::-1]
    top, path = to_highest_path(crystal, b, scan)
    x = schuetzenberger(crystal, top, nodes)
    for j in reversed(path):
        x = crystal.e(theta_on_nodes(nodes, j), x)
        if x is None:
            raise ValueError("replay fell off the crystal")
    return x


def kashiwara_reflection(crystal: Crystal, b, i: int):
    """Single-node reflection: apply f_i or e_i |<wt, coroot_i>| times.
    Raises ValueError on a node outside 1..rank-1, as the models do."""
    if not 0 < i < crystal.rank:
        raise ValueError(f"node {i} out of range for rank {crystal.rank}")
    d = pairing(crystal.weight(b), i)
    step = crystal.f if d >= 0 else crystal.e
    x = b
    for _ in range(abs(d)):
        x = step(i, x)
        if x is None:
            raise ValueError(
                f"reflection fell off the crystal at {crystal.canon(b)}")
    return x


def axiom_witnesses(crystal: Crystal, elements):
    """Witness stream of the defining axioms on a finite element set, one
    item per (element, node):

    - f_i(b) = c exactly when e_i(c) = b,
    - weights move by the simple root,
    - eps/phi equal the counts of repeated applications,
    - phi - eps equals the coroot pairing of the weight.
    """
    nodes = crystal.nodes()
    for b in elements:
        wb = crystal.weight(b)
        for i in nodes:
            c = crystal.f(i, b)
            if c is not None:
                if crystal.e(i, c) != b:
                    yield f"e_{i} f_{i} != id at {crystal.canon(b)}"
                if crystal.weight(c) != add_root(wb, i, -1):
                    yield f"f_{i} weight step wrong at {crystal.canon(b)}"
            c = crystal.e(i, b)
            if c is not None:
                if crystal.f(i, c) != b:
                    yield f"f_{i} e_{i} != id at {crystal.canon(b)}"
                if crystal.weight(c) != add_root(wb, i, +1):
                    yield f"e_{i} weight step wrong at {crystal.canon(b)}"
            ep, ph = crystal.eps(i, b), crystal.phi(i, b)
            if ep != Crystal.eps(crystal, i, b) or \
                    ph != Crystal.phi(crystal, i, b):
                yield (f"eps/phi formula disagrees with iteration at "
                       f"{crystal.canon(b)}, node {i}")
            if ph - ep != pairing(wb, i):
                yield (f"phi - eps != <wt, coroot> at {crystal.canon(b)}, "
                       f"node {i}")
            yield None


def check_crystal_axioms(crystal: Crystal, elements) -> Report:
    """The report of `axiom_witnesses` on a finite element set."""
    return run_checks("axioms", {"rank": crystal.rank, "size": len(elements)},
                      axiom_witnesses(crystal, elements))


def character(crystal: Crystal, elements) -> Counter:
    """Weight multiset of an element set."""
    return Counter(crystal.weight(b) for b in elements)


def involution_witnesses(crystal: Crystal, elements):
    """Witness stream of the pointwise involution contract on an element
    set, one item per (interval, element):

    - the involution squares to the identity,
    - it swaps e_i with f at the twisted index and reverses the weight
      inside the interval's positions,
    - the componentwise transport agrees with directed path transport under
      both scan orders.
    """
    for g in intervals(crystal.rank):
        p, q, nodes = g.p, g.q, g.nodes
        for b in elements:
            xb = schuetzenberger(crystal, b, nodes)
            if schuetzenberger(crystal, xb, nodes) != b:
                yield f"not an involution on {nodes} at {crystal.canon(b)}"
            wb = list(crystal.weight(b))
            wb[p - 1:q] = wb[p - 1:q][::-1]
            if list(crystal.weight(xb)) != wb:
                yield (f"weight not block-reversed on {nodes} at "
                       f"{crystal.canon(b)}")
            for i in nodes:
                ti = theta_on_nodes(nodes, i)
                lhs = crystal.e(i, xb)
                down = crystal.f(ti, b)
                if lhs != (None if down is None else
                           schuetzenberger(crystal, down, nodes)):
                    yield f"e_{i} twist fails on {nodes} at {crystal.canon(b)}"
                lhs = crystal.f(i, xb)
                up = crystal.e(ti, b)
                if lhs != (None if up is None else
                           schuetzenberger(crystal, up, nodes)):
                    yield f"f_{i} twist fails on {nodes} at {crystal.canon(b)}"
            small = schuetzenberger_by_path(crystal, b, nodes, "smallest")
            large = schuetzenberger_by_path(crystal, b, nodes, "largest")
            if small != xb or large != xb:
                yield (f"path transport disagrees on {nodes} at "
                       f"{crystal.canon(b)}")
            yield None


def verify_involution_properties(crystal: Crystal, elements) -> Report:
    """The report of `involution_witnesses` on an element set."""
    return run_checks("involution",
                      {"rank": crystal.rank, "size": len(elements)},
                      involution_witnesses(crystal, elements))


def verify_local_involution(crystal: Crystal, elements) -> Report:
    """On every element and every interval, the model's local route
    (`interval_involution`: evacuation on tableaux and patterns) equals
    edge transport."""
    if crystal.rank < 2:
        raise ValueError(f"rank {crystal.rank} has no intervals to check")
    return run_checks(
        "local-involution", {"rank": crystal.rank, "size": len(elements)},
        (None if crystal.interval_involution(b, g.nodes) ==
         schuetzenberger(crystal, b, g.nodes) else
         f"{g} local route disagrees with transport at {crystal.canon(b)}"
         for g in intervals(crystal.rank) for b in elements))


def is_morphism(f_map, dom: Crystal, cod: Crystal, elements) -> Report:
    """Check that an element map is a crystal morphism on `elements`, one
    check per element with an image.

    f_map returns None for the distinguished absent value; conditions apply
    only where the image is present: weights and all eps/phi agree, and the
    map intertwines e_i and f_i wherever both sides are defined.
    """
    if dom.rank != cod.rank:
        raise ValueError("morphism endpoints must share a rank")
    nodes = dom.nodes()

    def witnesses():
        for b in elements:
            fb = f_map(b)
            if fb is None:
                continue
            if dom.weight(b) != cod.weight(fb):
                yield f"weight not preserved at {dom.canon(b)}"
            for i in nodes:
                if dom.eps(i, b) != cod.eps(i, fb) or \
                        dom.phi(i, b) != cod.phi(i, fb):
                    yield f"eps/phi not preserved at {dom.canon(b)}, node {i}"
                down = dom.f(i, b)
                if down is not None and f_map(down) != cod.f(i, fb):
                    yield f"f_{i} not intertwined at {dom.canon(b)}"
                up = dom.e(i, b)
                if up is not None and f_map(up) != cod.e(i, fb):
                    yield f"e_{i} not intertwined at {dom.canon(b)}"
            yield None

    return run_checks("morphism", {"rank": dom.rank, "size": len(elements)},
                      witnesses())


def export_graph(crystal: Crystal, elements) -> str:
    """DOT text for the coloured graph on `elements`.

    Vertex ids are canonical element strings in lexicographic order; each
    lowering edge b -> f_i(b) carries color=i.  Output is byte-stable for a
    fixed input.
    """
    nodes = crystal.nodes()
    named = sorted((crystal.canon(b), b) for b in elements)
    lines = ["digraph crystal {"]
    for name, b in named:
        w = crystal.weight(b)
        lines.append(f'  "{name}" [wt="[{",".join(str(x) for x in w)}]"];')
    for name, b in named:
        for i in nodes:
            c = crystal.f(i, b)
            if c is not None:
                lines.append(f'  "{name}" -> "{crystal.canon(c)}" [color={i}];')
    lines.append("}")
    return "\n".join(lines)
