"""Reference command-line parser and input reader for the tests.

``_build_parser`` is the argparse front end that ``liecert.cli`` replaced by
its own command table and ``_parse``.  The CLI tests parse the same argv with
both and require the same attributes, or a refusal from both.  It is not
shipped: the package imports no ``argparse``.

``load_json_text_mode`` is the input reader that ``cli._load_json`` replaced
by raw ``os.read`` calls: a text-mode ``open`` and ``json.load``.  The CLI
tests run the same commands on the same files with both readers and require
the same exit code and output, apart from the file name that the new reader
puts before the errors of decoding and parsing.
"""

import argparse
import json

from liecert.cli import (
    DEFAULT_SEED,
    SEED_ENV,
    _cmd_affine_bracket,
    _cmd_aid,
    _cmd_aid_check,
    _cmd_centroid,
    _cmd_certify,
    _cmd_der,
    _cmd_dij_witness,
    _cmd_inner_match,
    _cmd_minimal,
    _cmd_roots,
    _cmd_selftest,
)
from liecert.exact import expect_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liecert", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help=f"deterministic seed (default {DEFAULT_SEED}, or ${SEED_ENV})")
    parser.add_argument("--json", metavar="PATH", default=None, help="also write the output document to PATH")
    parser.add_argument("--timings", action="store_true", help="include wall-clock timings in the document")
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--family", required=True)
    algebra.add_argument("--rank", type=int, required=True)
    subset = argparse.ArgumentParser(add_help=False, parents=[algebra])
    subset.add_argument(
        "--psi",
        required=True,
        help='semicolon-separated coordinates, e.g. "1,0;2,1" (--psi="-1,0" when it starts with -), '
        '"all" for every root or "positive" for the positive roots',
    )

    def add(name, fn, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(handler=fn)
        return p

    add("roots", _cmd_roots, [algebra], help="construct a root system")

    p = add("minimal", _cmd_minimal, [algebra], help="enumerate the minimal Q-graded subalgebras")
    p.add_argument("--cap", type=int, default=1 << 24)

    for name, fn in [("certify", _cmd_certify), ("der", _cmd_der), ("aid", _cmd_aid), ("centroid", _cmd_centroid)]:
        p = add(name, fn, [subset], help=f"{name} for a root subset")
        if name == "aid":
            p.add_argument("--matrix", default=None, help="derivation matrix JSON file")

    p = add("affine-bracket", _cmd_affine_bracket, [subset], help="bracket two affine elements")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("dij-witness", _cmd_dij_witness, [subset], help="bracket witness for a toral-to-center derivation")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", required=True)

    p = add("aid-check", _cmd_aid_check, [subset], help="almost-inner check of an operator at an element")
    p.add_argument("--op", required=True)
    p.add_argument("--x", required=True)

    p = add("inner-match", _cmd_inner_match, [subset], help="decide one inner match for a dij combination")
    p.add_argument("--op", required=True)
    p.add_argument("--window", type=int, default=4)

    p = add("selftest", _cmd_selftest, help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers (default all)")

    return parser


def load_json_text_mode(path: str) -> dict:
    """The JSON object in ``path``; ValueError on a key that one object
    repeats, which ``json.load`` would read as its last value."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            twice = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ValueError(f"{path}: key {json.dumps(twice)} appears twice in one object")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        return expect_json(json.load(fh, object_pairs_hook=unique), dict, path)
