"""Command-line front end: compute, export, and verify.

Subcommands: graph, character, tensor, act, gt, skew-howe, verify.  All
structured output is JSON (DOT for graphs, plain text on request); every
computation is deterministic, so output for a fixed input is byte-stable.

Exit status: 0 on success or a passing verification, 1 on a verification
failure (the witness is printed), 2 on usage errors (a flag the command
would not read among them) or malformed input.
"""

import argparse
import json
import sys
from functools import partial
from itertools import product
from math import comb, prod

from . import gt as gtmod
from . import matrices as mat
from . import tableaux as tab
from .base import (format_partition, format_weight, parse_partition,
                   weyl_dimension)
from .cactus import inner_act, outer_act, parse_word
from .core import Report, character, components, export_graph
from .matrices import bit_matrices, matrix_col_crystal, matrix_row_crystal
from .skewhowe import (duality_inv, duality_iso, inner_on_cols, inner_on_rows,
                       outer_on_cols, outer_on_rows)
from .suites import (MATRIX_VERIFIERS, MODEL_VERIFIERS, SUITES, bk_rows,
                     model_rows, suite_rows, target_rows)
from .tableaux import enumerate_b_lambda, tableau_crystal
from .tensor import (TensorCrystal, element_from_json, element_to_json,
                     tensor_crystal)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# model selection helpers

# the selector flags each command, verify target and --model reads
READS = {"tableau": "rank shape", "gt": "rank shape", "matrix": "n m N structure",
         "tensor": "rank shapes", "graph": "model", "character": "model",
         "act": "model", "verify all": "budget force", "verify goldens": "",
         **{f"verify {t}": "n m N budget force" for t in MATRIX_VERIFIERS},
         "verify bk": "rank shape budget force",
         **{f"verify {t}": "model budget force" for t in MODEL_VERIFIERS}}


def _refuse_unread(args, what: str) -> None:
    """Reject a selector flag given that `what` or its --model would not read."""
    reads = READS[what].split()
    if "model" in reads:
        args.model = args.model or "tableau"
        what = f"{what} --model {args.model}"
        reads += READS[args.model].split()
    for flag in " ".join(READS.values()).split():
        if flag not in reads and getattr(args, flag, None) is not None:
            raise UsageError(f"{what} does not read --{flag}")


def _check_matrix_size(n: int, m: int, N: int | None) -> None:
    """Reject matrix selectors that would enumerate nothing."""
    if n < 1 or m < 1:
        raise UsageError(f"--n and --m must be at least 1, got n={n} m={m}")
    if N is not None and not 0 <= N <= n * m:
        raise UsageError(f"--N must lie in 0..{n * m} for {n} x {m} matrices, "
                         f"got {N}")


def _tensor_model(rank: int, shapes: str):
    """(crystal, size, elements) for the tensor product of the tableau
    crystals of the semicolon-separated shapes: `elements()` lists its
    `size` elements in lexicographic factor order."""
    parts = [parse_partition(s) for s in shapes.split(";")]
    crystal = tensor_crystal(*([tableau_crystal(rank)] * len(parts)))
    return (crystal, prod(weyl_dimension(s, rank) for s in parts),
            lambda: list(product(*[enumerate_b_lambda(s, rank)
                                   for s in parts])))


def _selected_model(args):
    """(crystal, size, elements) for graph/character/verify model selectors:
    `elements()` enumerates the selection and `size`, its length, is read
    off a formula (Weyl's dimension formula, or a binomial for matrices),
    so `verify` can price a selection without enumerating it."""
    rank = 3 if args.rank is None else args.rank
    shape = parse_partition(args.shape or "")
    if args.model == "tableau":
        return (tableau_crystal(rank), weyl_dimension(shape, rank),
                partial(enumerate_b_lambda, shape, rank))
    if args.model == "gt":
        crystal = gtmod.pattern_crystal(rank)
        return crystal, weyl_dimension(shape, rank), lambda: sorted(
            gtmod.patterns_with_top(shape, rank), key=crystal.canon)
    if args.model == "matrix":
        n, m, N = args.n, args.m, args.N
        if n is None or m is None or N is None:
            raise UsageError("matrix model needs --n, --m and --N")
        _check_matrix_size(n, m, N)
        model = (matrix_row_crystal if args.structure == "row"
                 else matrix_col_crystal)
        return model(n, m), comb(n * m, N), lambda: list(bit_matrices(n, m, N))
    return _tensor_model(rank, args.shapes or "")


def _read_json(path) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds {type(data).__name__}, not a JSON object")
    return data


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_graph(args) -> int:
    _refuse_unread(args, "graph")
    crystal, _, elements = _selected_model(args)
    _emit(args, export_graph(crystal, elements()))
    return 0


def cmd_character(args) -> int:
    _refuse_unread(args, "character")
    crystal, _, enumerate_ = _selected_model(args)
    elements = enumerate_()
    char = character(crystal, elements)
    items = sorted(char.items(), reverse=True)
    if args.format == "json":
        payload = {"size": len(elements),
                   "character": {format_weight(w): c for w, c in items}}
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, "\n".join(f"{format_weight(w)}: {c}" for w, c in items))
    return 0


def cmd_tensor(args) -> int:
    crystal, _, enumerate_ = _tensor_model(args.rank, args.shapes)
    elements = enumerate_()
    comps = components(crystal, elements, crystal.nodes())
    rows = [{"highest_weight": list(crystal.weight(c.highest)),
             "size": len(c.elements)} for c in comps]
    if args.format == "json":
        _emit(args, json.dumps({"factors": len(crystal.factors),
                                "rank": args.rank, "size": len(elements),
                                "components": rows}, indent=2))
    else:
        lines = [f"{len(elements)} elements, {len(comps)} components"]
        lines += [f"  highest weight {tuple(r['highest_weight'])}: "
                  f"size {r['size']}" for r in rows]
        _emit(args, "\n".join(lines))
    return 0


def cmd_act(args) -> int:
    _refuse_unread(args, "act")
    data = _read_json(args.infile)
    if args.model == "matrix":
        M = mat.from_json(data)
        n, m = mat.dims(M)
        if args.structure != "row":
            w = parse_word(args.word, n if args.mode == "inner" else m)
            out = (inner_on_cols if args.mode == "inner" else outer_on_cols)(M, w)
        else:
            w = parse_word(args.word, m if args.mode == "inner" else n)
            out = (inner_on_rows if args.mode == "inner" else outer_on_rows)(M, w)
        _emit(args, mat.to_json(out) if args.format == "json" else mat.to_text(out))
        return 0
    if args.model == "tableau":
        rows, rank = tab.from_json(data)
        if args.mode != "inner":
            raise UsageError("tableaux carry only the inner action")
        out = inner_act(parse_word(args.word, rank), tableau_crystal(rank), rows)
        _emit(args, tab.to_json(out, rank) if args.format == "json" else tab.pretty(out))
        return 0
    if args.model == "gt":
        x = gtmod.from_json(data)
        if args.mode != "inner":
            raise UsageError("patterns carry only the inner action")
        rank = gtmod.rank_of(x)
        out = inner_act(parse_word(args.word, rank), gtmod.pattern_crystal(rank), x)
        _emit(args, gtmod.to_json(out) if args.format == "json" else gtmod.pretty(out))
        return 0
    crystal, t = element_from_json(data)
    if args.mode == "inner":
        w = parse_word(args.word, crystal.rank)
        out_crystal, out = crystal, inner_act(w, crystal, t)
    else:
        if not isinstance(crystal, TensorCrystal):
            raise UsageError("only tensor elements carry the outer action")
        w = parse_word(args.word, len(crystal.factors))
        out_crystal, out = outer_act(w, crystal, t)
    _emit(args, json.dumps(element_to_json(out_crystal, out), indent=2)
          if args.format == "json" else out_crystal.canon(out))
    return 0


def cmd_gt(args) -> int:
    if args.beta and args.format is not None:
        raise UsageError("gt --beta does not read --format; it prints JSON")
    x = gtmod.from_json(_read_json(args.infile))
    for token in (args.moves or "").split():
        kind, idx = token[0], token[1:]
        if kind == "t" and idx.isdigit():
            x = gtmod.bk_move(x, int(idx))
        elif kind == "q" and idx.isdigit():
            x = gtmod.bk_q(x, int(idx))
        else:
            raise UsageError(f"bad move token {token!r}; use t<j> or q<i>")
    if args.beta:
        text = json.dumps(list(gtmod.beta(x)))
    elif args.to_tableau:
        rows = gtmod.gt_to_tableau(x)
        text = (tab.pretty(rows) if args.format == "text"
                else tab.to_json(rows, gtmod.rank_of(x)))
    else:
        text = gtmod.pretty(x) if args.format == "text" else gtmod.to_json(x)
    _emit(args, text)
    return 0


def cmd_skew_howe(args) -> int:
    M = mat.from_json(_read_json(args.infile))
    # M is valid from here on, so a map that raises or does not give M back
    # is a broken model: a failure with a witness, not bad input
    try:
        pair = duality_iso(M)
        back = duality_inv(pair)
        reason = None if back == M else f"the inverse gives {mat._flat(back)}"
    except ValueError as exc:
        reason = str(exc)
    if reason is not None:
        print(f"round trip failed at {mat._flat(M)}: {reason}", file=sys.stderr)
        return 1
    n, m = mat.dims(M)
    payload = {
        "lambda": format_partition(pair.lam),
        "P": json.loads(mat.to_json(pair.p_matrix)),
        "Q": json.loads(mat.to_json(pair.q_matrix)),
        "T_P": json.loads(tab.to_json(pair.t_p, n)),
        "T_Q": json.loads(tab.to_json(pair.t_q, m)),
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, "\n".join([
            f"lambda = {format_partition(pair.lam)}",
            "P:", mat.to_text(pair.p_matrix),
            "Q:", mat.to_text(pair.q_matrix),
            "T_P:", tab.pretty(pair.t_p),
            "T_Q:", tab.pretty(pair.t_q)]))
    return 0


# ---------------------------------------------------------------------------
# verification

def cmd_verify(args) -> int:
    target = args.target
    _refuse_unread(args, f"verify {target}")
    # the one enumeration budget: `verify all` defaults to a sub-minute
    # selection, explicit targets to 10**6.  --budget overrides either way.
    budget = args.budget
    if budget is None:
        budget = 500 if target == "all" else 10 ** 6
    elif budget < 0:
        raise UsageError(f"--budget must be non-negative, got {budget}")

    def run_one(label, thunk):
        # every input is validated before any instance runs, so a
        # ValueError here, or the AssertionError of a library cross-check,
        # comes from a broken model: a failure, not an error
        try:
            return thunk()
        except (ValueError, AssertionError) as exc:
            return Report(label, {}, 0, "fail", str(exc))

    def require_rank(rank):
        # rank 1 has no nodes, so every element check would pass vacuously
        if rank < 2:
            raise UsageError(f"verify {target} needs rank at least 2, "
                             f"got {rank}")

    if target == "goldens":
        rows = SUITES["goldens"]()
    elif target == "all":
        rows = suite_rows()
    elif target in MATRIX_VERIFIERS:
        if args.n is None or args.m is None:
            raise UsageError(f"verify {target} needs --n and --m")
        _check_matrix_size(args.n, args.m, args.N)
        rows = target_rows(target, args.n, args.m, args.N)
        if not rows:
            at = "" if args.N is None else f" N={args.N}"
            raise UsageError(f"verify {target} has nothing to check at "
                             f"n={args.n} m={args.m}{at}")
    elif target == "bk":
        if args.rank is None or args.shape is None:
            raise UsageError("verify bk needs --rank and --shape")
        require_rank(args.rank)
        shape = parse_partition(args.shape)
        if len(shape) > args.rank:
            raise UsageError(f"shape {args.shape} has more than {args.rank} rows")
        rows = bk_rows(shape, args.rank, args.shape)
    else:
        crystal, size, enumerate_ = _selected_model(args)
        # a selection over budget is refused below without being
        # enumerated; one within it is enumerated before the rank check, as
        # only a malformed one (size 0) can fail to enumerate
        elements = enumerate_() if size <= budget or args.force else None
        require_rank(crystal.rank)
        rows = model_rows(target, args.model, crystal, size, elements)
    # an explicitly requested instance over budget is an error, not a silent
    # skip; suites skip instead
    if target != "all" and not args.force:
        for label, cost, _ in rows:
            if cost > budget:
                raise UsageError(f"{label} enumerates {cost} > budget {budget}; "
                                 f"raise --budget or pass --force")
    todo = [(label, thunk) for label, cost, thunk in rows
            if cost <= budget or args.force]
    skipped = len(rows) - len(todo)
    reports = [(label, run_one(label, thunk)) for label, thunk in todo]

    failures = 0
    for label, rep in reports:
        mark = "PASS" if rep.ok else "FAIL"
        line = f"{mark} {label} (checked={rep.checked})"
        if not rep.ok:
            line += f"  witness: {rep.witness}"
            failures += 1
        print(line)
    if skipped:
        print(f"SKIP {skipped} instance(s) over budget {budget}"
              " (raise --budget or pass --force)")
    print(f"{len(reports) - failures}/{len(reports)} passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glcrystals",
        description="exact computations and verifiers for gl_k crystals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", choices=["tableau", "matrix", "tensor", "gt"])
        p.add_argument("--rank", type=int)
        p.add_argument("--shape")
        p.add_argument("--shapes")
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--N", type=int)
        p.add_argument("--structure", choices=["row", "column"])

    def add_output(p, formats=("json", "text"), default="json"):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out")

    p = sub.add_parser("graph", help="DOT export of a crystal graph")
    add_model_flags(p)
    add_output(p, ["dot"], "dot")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("character", help="weight multiset of a model")
    add_model_flags(p)
    add_output(p)
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("tensor", help="components of a tensor of tableau crystals")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--shapes", required=True,
                   help="semicolon-separated shapes, e.g. '2,1;1'")
    add_output(p)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("act", help="apply a cactus word to an element")
    p.add_argument("--model",
                   choices=["tableau", "matrix", "tensor", "gt"], required=True)
    p.add_argument("--word", required=True,
                   help="generators act left to right, e.g. 's[1,3] s[2,4]'")
    p.add_argument("--mode", choices=["inner", "outer"], default="inner")
    p.add_argument("--structure", choices=["row", "column"])
    p.add_argument("--in", dest="infile", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("gt", help="pattern moves, content vector, tableau form")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--moves", default="",
                   help="whitespace-separated tokens t<j> or q<i>")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--to-tableau", action="store_true")
    form.add_argument("--beta", action="store_true")
    add_output(p, default=None)
    p.set_defaults(fn=cmd_gt)

    p = sub.add_parser("skew-howe", help="duality pair of a 0/1 matrix")
    p.add_argument("--in", dest="infile", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_skew_howe)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("target", choices=[k.split()[1] for k in READS if " " in k])
    add_model_flags(p)
    p.add_argument("--budget", type=int, default=None,
                   help="skip instances enumerating more than this many "
                        "elements; 0 keeps goldens only (default: 500 for "
                        "'all', 1000000 otherwise)")
    p.add_argument("--force", action="store_true", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
