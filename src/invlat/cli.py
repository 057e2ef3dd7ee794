"""Command-line front end.

Verbs:
  analyze NAME|FILE   full report for a catalog entry or a group JSON file
  catalog             list the built-in entries
  construct NAME      build one invariant lattice by a named recipe
  decompose NAME      reflection-torus decomposition of the rank-2n lattice

The verbs and their options are declared once, in the table `VERBS`.  A plain
command line (a verb, its target, then each option at most once, spelled in
full, with a value that does not start with '-') is read straight from the
table by `_parse_plain`.  Any other line goes to the argparse parser that
`build_parser` builds from the same table, so help, abbreviations,
`--flag=value` and every rejection keep argparse's messages and exit code 2;
argparse is imported only then.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 invalid input (a bad argument such as --cap below 1 or above 100000, or a
bad group),
3 closure cap exceeded, 4 internal consistency failure.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

from .catalog import CATALOG, get_entry
from .cyclotomic import parse_scalar
from .errors import (
    CapExceededError,
    InternalConsistencyError,
    InvalidInputError,
)
from .groups import DEFAULT_CAP, MAX_CAP
from .report import GroupAnalysis, analyze, render_json


def _load_target(target: str):
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers bad JSON, bad UTF-8 and over-long integers
            raise InvalidInputError(f"cannot read group file {target}: {exc}") from exc
    return target


def _print_kv(key: str, value) -> None:
    print(f"{key:>18}: {value}")


def _human_report(rep: dict) -> None:
    inp = rep["input"]
    _print_kv("input", f"{inp['name'] or '(inline group)'} "
                       f"({inp['kind']}, dimension {inp['dimension']})")
    if rep["group"] is not None:
        g = rep["group"]
        _print_kv(
            "group",
            f"order {g['order']}, conductor {g['conductor']}, "
            f"{g['reflections']} reflections",
        )
    if rep["profile"] is not None:
        p = rep["profile"]
        f = p["character_field"]
        disc = "" if f["discriminant"] is None else f", discriminant {f['discriminant']}"
        _print_kv("character field", f"{f['kind']} (degree {f['degree']}{disc})")
        _print_kv(
            "indicator",
            f"{p['frobenius_schur']} ({p['bilinear_form']})",
        )
        _print_kv(
            "schur index",
            f"{p['schur_index']} (module dimension {p['module_dimension']}, "
            f"stable passes {p['stable_passes']})",
        )
        if p["gcd_certificate"] is not None:
            terms = ", ".join(
                f"{c['combination']} ({c['kernel_dimension']})"
                for c in p["gcd_certificate"]
            )
            _print_kv("gcd certificate", terms)
    if rep["verdict"] is not None:
        v = rep["verdict"]
        _print_kv(
            "verdict",
            f"{v['clause']}: rank-n {'yes' if v['exists_rank_n'] else 'no'}, "
            f"rank-2n {'yes' if v['exists_rank_2n'] else 'no'}",
        )
    for entry in rep["lattices"]:
        extra = ""
        if "scalar" in entry:
            extra = f", scalar {entry['scalar']}"
        if "index_over_input" in entry:
            extra += f", index {entry['index_over_input']} over the orbit lattice"
        _print_kv(
            f"lattice [{entry['recipe']}]",
            f"rank {entry['rank']}, invariant {entry['invariant']}{extra}",
        )
    if rep["split"] is not None:
        s = rep["split"]
        _print_kv(
            "split",
            f"free of rank {s['module_rank']} over the order of discriminant "
            f"{s['order']['discriminant']}",
        )
    if rep["reflection"] is not None:
        r = rep["reflection"]
        cm = "none" if r["cm"] is None else r["cm"]["value"]
        _print_kv(
            "reflection",
            f"{len(r['lines'])} lines, sublattice index {r['sublattice_index']}, "
            f"s determinant {r['s_det']}, graph connected {r['graph']['connected']}, "
            f"cm multiplier {cm}",
        )
        _print_kv("geometry tags", " ".join(r["tags"]))
    if rep["quaternion"] is not None:
        q = rep["quaternion"]
        _print_kv(
            "algebra",
            f"({q['algebra']['a']}, {q['algebra']['b']}), "
            f"definite {q['algebra']['definite']}",
        )
        _print_kv("complex structure", "(" + ", ".join(q["complex_structure"]) + ")")
        _print_kv(
            "subfield witness",
            f"t = {q['subfield']['t']}, field discriminant "
            f"{q['subfield']['field_discriminant']}",
        )
        e = q["endomorphisms"]
        _print_kv(
            "endomorphisms",
            f"rank {e['rank']}, {e['structure_tag']}"
            + ("" if e["center_discriminant"] is None
               else f", center discriminant {e['center_discriminant']}"),
        )
    s = rep["structure"]
    abelian = {True: "yes", False: "no", None: "undetermined"}[s["abelian"]]
    _print_kv("abelian variety", abelian)
    if s["tags"]:
        _print_kv("structure tags", " ".join(s["tags"]))
    if s["detail"]:
        _print_kv("detail", s["detail"])


def _cmd_analyze(args) -> int:
    rep = analyze(_load_target(args.target), cap=args.cap)
    if args.json:
        print(render_json(rep))
    else:
        _human_report(rep)
    return 0


def _cmd_catalog(args) -> int:
    if args.json:
        listing = [
            {
                "name": e.name,
                "kind": e.kind,
                "dimension": e.dimension,
                "order": e.expected_order,
                "description": e.description,
            }
            for e in CATALOG.values()
        ]
        print(render_json(listing))
        return 0
    for e in CATALOG.values():
        order = "" if e.expected_order is None else f" order {e.expected_order},"
        print(f"{e.name:>20}  {e.kind},{order} dimension {e.dimension}")
        print(f"{'':>20}  {e.description}")
    return 0


def _catalog_analysis(args, c=None) -> GroupAnalysis:
    """The analysis of the catalog group named by args.target; the doubling
    scalar text c is parsed once the group is closed."""
    entry = get_entry(args.target)
    if entry.kind != "group":
        raise InvalidInputError(
            f"{entry.name} is a quaternion-torus preset; use analyze"
        )
    group = entry.group(cap=args.cap)
    scalar = None if c is None else parse_scalar(c)
    return GroupAnalysis(group, entry=entry, doubling_scalar=scalar)


def _cmd_construct(args) -> int:
    analysis = _catalog_analysis(args, c=args.c)
    name, built = analysis.entry.name, analysis.lattices.entries
    wanted = [e for e in built if e["recipe"] == args.recipe]
    if not wanted:
        recipes = ", ".join(e["recipe"] for e in built) or "none"
        raise InvalidInputError(
            f"recipe {args.recipe} does not apply to {name} "
            f"(clause {analysis.verdict.clause}; built: {recipes})"
        )
    out = wanted[0]
    if args.c is not None and out.get("scalar") != str(analysis.doubling_scalar):
        # only the ds lattice of a rationally represented group takes --c
        used = "no doubling scalar" if "scalar" not in out else f"scalar {out['scalar']}"
        raise InvalidInputError(
            f"--c {args.c} does not apply: the {out['recipe']} lattice of "
            f"{name} is built with {used}"
        )
    if args.json:
        print(render_json(out))
    else:
        _print_kv("entry", name)
        _print_kv("recipe", out["recipe"])
        _print_kv("rank", out["rank"])
        _print_kv("invariant", out["invariant"])
        den = out["lattice"]["denominator"]
        for row in out["lattice"]["basis"]:
            text = "(" + ", ".join(str(x) for x in row) + ")"
            if den != 1:
                text += f" / {den}"
            _print_kv("basis row", text)
    return 0


def _cmd_decompose(args) -> int:
    analysis = _catalog_analysis(args)
    r = analysis.geometry
    if r is None:
        raise InvalidInputError(
            f"{analysis.entry.name} has no reflection decomposition "
            "(no rank-2n lattice or not a reflection group)"
        )
    if args.json:
        print(render_json(r))
        return 0
    for line in r["lines"]:
        ring = line["multiplier"]
        ring_text = "Z" if ring is None or ring["kind"] == "Z" else (
            f"order of discriminant {ring['discriminant']}"
        )
        _print_kv(
            f"line {line['line_index']}",
            f"root ({', '.join(line['root'])}), theta {line['theta']}, "
            f"rank {line['rank']}, multipliers {ring_text}",
        )
    _print_kv("sublattice index", r["sublattice_index"])
    _print_kv("s determinant", r["s_det"])
    edges = ", ".join(
        f"{e['source']}->{e['target']}" for e in r["graph"]["edges"]
    )
    _print_kv("graph", f"{edges or 'no edges'} (connected {r['graph']['connected']})")
    cm = "none" if r["cm"] is None else (
        f"{r['cm']['value']} on line {r['cm']['line_index']} "
        f"(cycle {tuple(r['cm']['cycle'])})"
    )
    _print_kv("cm multiplier", cm)
    _print_kv("tags", " ".join(r["tags"]))
    return 0


def _closure_cap(text: str) -> int:
    """The --cap value; a ValueError carries the message argparse prints."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    if value > MAX_CAP:
        raise ValueError(f"must be at most {MAX_CAP}, got {value}")
    return value


_JSON = {"action": "store_true", "help": "emit canonical JSON"}
_CAP = {
    "type": _closure_cap, "default": DEFAULT_CAP,
    "help": f"group closure size limit, 1 to {MAX_CAP} (default {DEFAULT_CAP})",
}

# verb -> (handler, help, the target's help or None, {option: argparse keywords}),
# the options in their order on the help page.  Both parsers read this table.
VERBS = {
    "analyze": (
        _cmd_analyze, "full report for one input",
        "catalog name or path to a group JSON file",
        {"--json": _JSON, "--cap": _CAP},
    ),
    "catalog": (_cmd_catalog, "list built-in entries", None, {"--json": _JSON}),
    "construct": (
        _cmd_construct, "build one lattice by recipe", "catalog name",
        {
            "--recipe": {
                "required": True, "choices": ["Zn", "ds", "O", "saturate"],
                "help": "construction recipe",
            },
            "--c": {
                "default": None,
                "help": "doubling scalar for the ds recipe (for example z4)",
            },
            "--json": _JSON,
            "--cap": _CAP,
        },
    ),
    "decompose": (
        _cmd_decompose, "reflection-torus decomposition", "catalog name",
        {"--json": _JSON, "--cap": _CAP},
    ),
}


def _parse_plain(argv):
    """The namespace argparse gives for a plain command line, or None.

    Plain: a verb, then its target (not starting with '-'), then each of the
    verb's options at most once, spelled in full, as `--json` or `--flag
    value` with a value that does not start with '-'; every value passes its
    check and every required option is present.  argparse reads anything
    else, so help, abbreviations and every rejection keep its messages.
    """
    if not argv or argv[0] not in VERBS:
        return None
    func, _, target_help, options = VERBS[argv[0]]
    values = {"verb": argv[0], "func": func}
    rest = iter(argv[1:])  # a missing target or value reads as "-"
    if target_help is not None:
        target = next(rest, "-")
        if target.startswith("-"):
            return None
        values["target"] = target
    given = {}
    for flag in rest:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, "-")
        choices = keywords.get("choices")
        if value.startswith("-") or (choices is not None and value not in choices):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        given[flag] = value
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords.get("default")
        values[flag[2:]] = value
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """The argparse parser of the verb table, built once per process: parsing
    leaves it unchanged, and each call of `main` gets a fresh namespace."""
    import argparse

    def checked(convert):
        def value(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parser = argparse.ArgumentParser(
        prog="invlat",
        description=(
            "Invariant lattices of finite irreducible matrix groups and the "
            "structure of their quotient tori, in exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, help_text, target_help, options) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        if target_help is not None:
            p.add_argument("target", help=target_help)
        for flag, keywords in options.items():
            if "type" in keywords:
                keywords = {**keywords, "type": checked(keywords["type"])}
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, as the Python docs advise for SIGPIPE, so
        # the interpreter's last flush of the unwritten rest stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
