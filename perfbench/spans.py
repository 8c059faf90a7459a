"""Span tracing installed from outside the library.

`Tracer.install()` replaces every traced function in every glcrystals module
namespace that binds it, and the traced model methods on their classes, with
a wrapper that records one span per call: name, start, end, parent span and
the current request id.  `uninstall()` restores the originals.

Self time is computed while the run goes: each open span accumulates the
durations of its direct children, and on exit adds its duration minus that
sum to its name's self time.  Spans are also kept in compact arrays, up to a
cap, and `write()` stores them when the run ends.

Hits and misses of the Schutzenberger memo are classified by reading the
model's `_xi_cache` table before each call; a `Crystal.cache_stats()`
counter inside the library is meant to replace this reading.
"""

import json
import random
import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced function, by layer.  The same function
# object is replaced wherever a module binds it, so `schuetzenberger` is
# traced from `core`, `cactus`, `skewhowe` and the package namespace alike.
FUNCTIONS = (
    # L0 operators
    ("matrices", "Re"), ("matrices", "Rf"), ("matrices", "Ce"),
    ("matrices", "Cf"), ("matrices", "Reps"), ("matrices", "Rphi"),
    ("matrices", "Ceps"), ("matrices", "Cphi"),
    ("matrices", "row_eps_profile"), ("matrices", "row_phi_profile"),
    ("matrices", "col_eps_profile"), ("matrices", "col_phi_profile"),
    ("tableaux", "signature"), ("tableaux", "apply_e"), ("tableaux", "apply_f"),
    ("gt", "bk_move"), ("gt", "bk_q"),
    # L1 transport
    ("core", "schuetzenberger"), ("core", "component"),
    ("core", "kashiwara_reflection"),
    # L2 actions
    ("cactus", "inner_act"), ("cactus", "outer_act"), ("cactus", "xi_full"),
    ("tensor", "tensor_crystal"),
    ("skewhowe", "duality_iso"), ("skewhowe", "duality_inv"),
    ("skewhowe", "outer_on_rows"), ("skewhowe", "outer_on_cols"),
    ("skewhowe", "inner_on_rows"), ("skewhowe", "inner_on_cols"),
    # L3 verifiers
    ("skewhowe", "verify_agreement"), ("skewhowe", "verify_corollary"),
    ("skewhowe", "verify_counting"), ("matrices", "verify_commutation"),
    ("matrices", "verify_dual_implementation"),
    ("cactus", "verify_cactus_relations"), ("cactus", "verify_reduced_braid"),
    ("core", "verify_involution_properties"), ("core", "check_crystal_axioms"),
    ("gt", "check_cgp_homomorphism"),
)

# (module, class, method) of every traced model method.
METHODS = (
    ("tensor", "TensorCrystal", "e"), ("tensor", "TensorCrystal", "f"),
    ("tensor", "TensorCrystal", "profiles"),
    ("matrices", "MatrixRowCrystal", "e"), ("matrices", "MatrixRowCrystal", "f"),
    ("matrices", "MatrixColCrystal", "e"), ("matrices", "MatrixColCrystal", "f"),
    ("tableaux", "TableauCrystal", "e"), ("tableaux", "TableauCrystal", "f"),
)

# Functions whose arguments are sampled for the unwrapped per-call replay.
REPLAYED = ("matrices.Re", "matrices.Ce", "tensor.TensorCrystal.e",
            "tableaux.apply_f", "skewhowe.duality_iso", "skewhowe.outer_on_rows")

SPAN_CAP = 1_000_000
SAMPLE_SIZE = 2000

XI = "core.schuetzenberger"
COMPONENT = "core.component"


def rebind(package: str, original, replacement) -> list[tuple[object, str]]:
    """Replace `original` by `replacement` in every loaded module of
    `package` that binds it; returns the (module, name) pairs changed."""
    changed = []
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    changed.append((mod, key))
    return changed


class Tracer:
    def __init__(self, package, seed: int):
        self.package = package
        self.names: list[str] = []
        self.stats: list[list] = []        # per name id: [calls, self_s]
        self.stack: list[list] = []        # open spans: [child_s, span index]
        self.request = -1
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.samples = {name: [] for name in REPLAYED}
        self.sample_seen = dict.fromkeys(REPLAYED, 0)
        self.rng = random.Random(seed)
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        # memo observations of the Schutzenberger involution
        self.xi_hits = 0
        self.xi_miss_s = 0.0
        self.xi_filled = 0
        self.xi_returned: set = set()
        self.largest_component = 0
        self.crystals: dict[int, object] = {}

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(self.package, mod_name), attr)
            name = f"{mod_name}.{attr}"
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for mod, key in rebind(self.package.__name__, original, wrapper):
                self._patched.append((mod, key, original))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(getattr(self.package, mod_name), cls_name)
            original = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            self.originals[name] = original
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.stats.append([0, 0.0])
        return len(self.names) - 1

    def _open(self, nid: int, start: float) -> list:
        index = len(self.span_start)
        if index < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][1] if self.stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(start)
            self.span_end.append(start)
        else:
            index = -1
            self.dropped += 1
        frame = [0.0, index]
        self.stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, start: float) -> float:
        end = perf_counter()
        self.stack.pop()
        duration = end - start
        stats = self.stats[nid]
        stats[0] += 1
        stats[1] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        if frame[1] >= 0:
            self.span_end[frame[1]] = end
        return duration

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        if name == XI:
            return self._wrap_xi(nid, fn)
        sample = self.samples.get(name)
        is_component = name == COMPONENT
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if sample is not None:
                self._sample(name, sample, args)
            start = perf_counter()
            frame = open_(nid, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(nid, frame, start)
            if is_component:
                self.crystals[id(args[0])] = args[0]
                self.largest_component = max(self.largest_component,
                                             len(result.elements))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_xi(self, nid: int, fn):
        open_, close = self._open, self._close

        def wrapper(crystal, b, nodes):
            nodes = tuple(nodes)
            self.crystals[id(crystal)] = crystal
            table = getattr(crystal, "_xi_cache", {}).get(nodes)
            before = 0 if table is None else len(table)
            hit = not nodes or (table is not None and b in table)
            start = perf_counter()
            frame = open_(nid, start)
            try:
                result = fn(crystal, b, nodes)
            finally:
                duration = close(nid, frame, start)
            if hit:
                self.xi_hits += 1
            else:
                self.xi_miss_s += duration
                table = getattr(crystal, "_xi_cache", {}).get(nodes, {})
                filled = len(table) - before
                self.xi_filled += filled
                self.largest_component = max(self.largest_component, filled)
            if nodes:
                self.xi_returned.add(hash((id(crystal), nodes, b)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _sample(self, name: str, sample: list, args) -> None:
        """Reservoir sample of call arguments for the unwrapped replay."""
        seen = self.sample_seen[name] = self.sample_seen[name] + 1
        if len(sample) < SAMPLE_SIZE:
            sample.append(args)
        else:
            slot = self.rng.randrange(seen)
            if slot < SAMPLE_SIZE:
                sample[slot] = args

    # -- results -----------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {name: tuple(s) for name, s in zip(self.names, self.stats)}

    def memo_entries(self) -> int:
        total = 0
        for crystal in self.crystals.values():
            for attr in ("_xi_cache", "_component_cache"):
                for table in getattr(crystal, attr, {}).values():
                    total += len(table)
        return total

    def replay_us(self, name: str, repeats: int = 5) -> float:
        """Median over `repeats` of the mean cost of the sampled calls,
        through the original function, in microseconds; 0 when unsampled.
        Call only after `uninstall()`."""
        sample = self.samples[name]
        if not sample:
            return 0.0
        fn = self.originals[name]
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for args in sample:
                fn(*args)
            times.append((perf_counter() - start) / len(sample))
        times.sort()
        return times[len(times) // 2] * 1e6

    def write(self, stem) -> None:
        """Store the kept spans as `<stem>.bin` (the arrays in header order)
        and `<stem>.json` (names, counts and array layout)."""
        arrays = (("name", self.span_name), ("parent", self.span_parent),
                  ("request", self.span_request), ("start", self.span_start),
                  ("end", self.span_end))
        with open(f"{stem}.bin", "wb") as out:
            for _, arr in arrays:
                arr.tofile(out)
        header = {"names": self.names, "count": len(self.span_start),
                  "dropped": self.dropped,
                  "arrays": [[key, arr.typecode] for key, arr in arrays]}
        with open(f"{stem}.json", "w") as out:
            json.dump(header, out)


def read_spans(stem) -> dict:
    """Load spans written by `Tracer.write` as a dict of arrays plus the
    header."""
    with open(f"{stem}.json") as src:
        header = json.load(src)
    count = header["count"]
    out = {"header": header}
    with open(f"{stem}.bin", "rb") as src:
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(src, count)
            out[key] = arr
    return out


def self_times(spans: dict) -> list[float]:
    """Per span, its duration minus the part covered by its child spans."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = [0.0] * len(start)
    for k, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[k] - start[k]
    return [end[k] - start[k] - covered[k] for k in range(len(start))]
