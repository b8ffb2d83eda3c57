"""Command-line front end.

One subcommand per workbench operation plus the seeded property-test harness.
Results are printed as a Verdict, either canonical JSON (default) or a plain
text table.  Exit codes: 0 success, 1 validation failure (or a reader that
closed stdout before the verdict was written), 2 an unreadable or malformed
document or command line, 3 internal error (an unexpected exception,
reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any

from .chaincalc import (
    check_essential,
    check_left_continuous,
    check_p_infinity,
    check_p_property,
    check_pair,
    lower_regularization,
    predict_m0,
    predict_m0_pair,
    predict_max_pair,
    predict_me_support,
)
from .documents import WorkbenchDoc, _fmt_abstract_fn, _fmt_matrix, _fmt_vector, parse_document
from .errors import DocumentError, NestlabError, UnknownCommandError
from .opspace import (
    decompose,
    essential_support_of,
    generate_bimodule,
    is_reflexive,
    m_of,
    nest_algebra,
    rank_one_in_alg,
    rank_one_in_m,
    support_of,
    OperatorSpace,
)
from .suites import SUITES, run_suite

TABLE_INDENT = "  "


@dataclass
class Verdict:
    """What a single CLI invocation concluded."""

    command: str
    result: Any
    seed: int | None = None
    cases: int | None = None

    def payload(self) -> dict:
        out: dict[str, Any] = {"command": self.command, "result": self.result}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.cases is not None:
            out["cases"] = self.cases
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2)

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.cases is not None:
            lines.append(f"cases: {self.cases}")
        lines.extend(_table_lines("result", self.result, ""))
        return "\n".join(lines)


def _table_lines(key: str, value: Any, indent: str) -> list[str]:
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for k in value:
            lines.extend(_table_lines(str(k), value[k], indent + TABLE_INDENT))
        return lines
    if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        lines = [f"{indent}{key}:"]
        for i, item in enumerate(value):
            lines.extend(_table_lines(f"[{i}]", item, indent + TABLE_INDENT))
        return lines
    return [f"{indent}{key}: {json.dumps(value)}"]


def _fmt_space(space: OperatorSpace) -> dict:
    return {
        "dimension": space.dim,
        "basis": [_fmt_matrix(m) for m in space.basis_matrices()],
    }


def _support_table(phi) -> dict:
    return {
        "values": list(phi.values),
        "element_dims": [e.dim for e in phi.nest.elements],
    }


def _operator_space(doc: WorkbenchDoc, nest) -> OperatorSpace:
    """Either the span of a 'basis' role or the closure of 'generators'."""
    if "basis" in doc.operators:
        return OperatorSpace.from_matrices(nest.ambient_dim, doc.matrices("basis"))
    return generate_bimodule(nest, doc.matrices("generators"))


# --- concrete commands -------------------------------------------------------

def _cmd_alg(doc: WorkbenchDoc) -> Any:
    return _fmt_space(nest_algebra(doc.require_nest()))


def _cmd_gen_bimodule(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    return _fmt_space(generate_bimodule(nest, doc.matrices("generators")))


def _cmd_support(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    return _support_table(support_of(nest, _operator_space(doc, nest)))


def _cmd_ess_support(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    return _support_table(essential_support_of(nest, _operator_space(doc, nest)))


def _cmd_m_of_phi(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    return _fmt_space(m_of(nest, doc.require_support(nest)))


def _cmd_check_reflexive(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    return {"reflexive": is_reflexive(nest, _operator_space(doc, nest))}


def _cmd_decompose(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    phi = doc.require_support(nest)
    targets = doc.matrices("target")
    if len(targets) != 1:
        raise DocumentError("'target' must hold exactly one matrix", path="operators.target")
    factors = decompose(nest, phi, targets[0])
    return {
        "factors": [
            {"functional": _fmt_vector(f.functional), "vector": _fmt_vector(f.vector)}
            for f in factors
        ]
    }


def _cmd_rank_one_check(doc: WorkbenchDoc) -> Any:
    nest = doc.require_nest()
    if doc.rank_one is None:
        raise DocumentError("document has no 'rank_one' section", path="rank_one")
    if doc.support_values is not None:
        member, witness = rank_one_in_m(nest, doc.require_support(nest), doc.rank_one)
    else:
        member, witness = rank_one_in_alg(nest, doc.rank_one)
    return {
        "member": member,
        "witness": None if witness is None else nest.index_of(witness),
    }


# --- chain commands ----------------------------------------------------------

def _cmd_chain_validate(doc: WorkbenchDoc) -> Any:
    chain = doc.require_chain()
    return {
        "labels": list(chain.labels()),
        "finite_stratum": [chain.nodes[i].label for i in chain.finite_stratum()],
        "p_property": check_p_property(chain),
        "p_infinity": check_p_infinity(chain),
    }


def _cmd_chain_regularize(doc: WorkbenchDoc) -> Any:
    return _fmt_abstract_fn(lower_regularization(doc.require_abstract_fn()))


CHAIN_CHECKS = ("left-continuous", "essential", "pair", "p", "p-infinity")


def _cmd_chain_check(doc: WorkbenchDoc, kind: str) -> Any:
    if kind == "left-continuous":
        return {"result": check_left_continuous(doc.require_abstract_fn())}
    if kind == "essential":
        return {"result": check_essential(doc.require_abstract_fn())}
    if kind == "pair":
        return {"result": check_pair(doc.require_abstract_pair())}
    if kind == "p":
        return {"result": check_p_property(doc.require_chain())}
    if kind == "p-infinity":
        chain = doc.require_chain()
        return {
            "result": check_p_infinity(chain),
            "finite_stratum_empty": not chain.finite_stratum(),
        }
    raise UnknownCommandError(f"unknown chain check {kind!r}")


PREDICT_KINDS = ("me", "max-pair", "m0", "m0-pair")


def _cmd_chain_predict(doc: WorkbenchDoc, kind: str) -> Any:
    if kind == "me":
        return _fmt_abstract_fn(predict_me_support(doc.require_abstract_fn()))
    if kind == "max-pair":
        pair = predict_max_pair(doc.require_abstract_pair())
    elif kind == "m0":
        pair = predict_m0(doc.require_abstract_fn())
    elif kind == "m0-pair":
        pair = predict_m0_pair(doc.require_abstract_pair())
    else:
        raise UnknownCommandError(f"unknown prediction {kind!r}")
    return {"phi": _fmt_abstract_fn(pair.phi), "psi": _fmt_abstract_fn(pair.psi)}


COMMANDS = {
    "alg": _cmd_alg,
    "gen-bimodule": _cmd_gen_bimodule,
    "support": _cmd_support,
    "ess-support": _cmd_ess_support,
    "m-of-phi": _cmd_m_of_phi,
    "check-reflexive": _cmd_check_reflexive,
    "decompose": _cmd_decompose,
    "rank-one-check": _cmd_rank_one_check,
    "chain-validate": _cmd_chain_validate,
    "chain-regularize": _cmd_chain_regularize,
}


def run(command: str, doc: WorkbenchDoc, kind: str | None = None) -> Verdict:
    """Dispatch one workbench command against a parsed document."""
    if command == "chain-check":
        return Verdict(command, _cmd_chain_check(doc, kind or ""))
    if command == "chain-predict":
        return Verdict(command, _cmd_chain_predict(doc, kind or ""))
    if command not in COMMANDS:
        raise UnknownCommandError(f"unknown command {command!r}")
    return Verdict(command, COMMANDS[command](doc))


def proptest(suite: str, seed: int, cases: int) -> Verdict:
    """Run a property suite; the Verdict lists pass/fail per property."""
    outcomes = run_suite(suite, seed, cases)
    result = {
        "suite": suite,
        "all_passed": all(o.passed for o in outcomes),
        "properties": [
            {
                "name": o.name,
                "cases": o.cases,
                "failures": o.failures,
                "passed": o.passed,
                "minimal_failure": o.minimal_failure,
            }
            for o in outcomes
        ],
    }
    return Verdict("proptest", result, seed=seed, cases=cases)


def _case_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestlab",
        description="exact workbench for subspace nests, operator bimodules, "
                    "and annotated abstract chains",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_doc_command(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--doc", required=True, help="path to a workbench document")
        return p

    add_doc_command("alg", "nest algebra of the document's nest")
    add_doc_command("gen-bimodule", "bimodule generated by the 'generators' operators")
    add_doc_command("support", "support function of the document's bimodule")
    add_doc_command("ess-support", "essential support of the document's bimodule")
    add_doc_command("m-of-phi", "largest operator space with the given support")
    add_doc_command("check-reflexive", "whether the document's bimodule is reflexive")
    add_doc_command("decompose", "rank-one decomposition of the 'target' operator")
    add_doc_command("rank-one-check", "rank-one membership with witness")
    add_doc_command("chain-validate", "validate the document's abstract chain")
    add_doc_command("chain-regularize", "lower regularization of the abstract map")
    p = add_doc_command("chain-check", "run one abstract-chain check")
    p.add_argument("kind", choices=CHAIN_CHECKS)
    p = add_doc_command("chain-predict", "guarded support prediction")
    p.add_argument("kind", choices=PREDICT_KINDS)

    p = sub.add_parser("proptest", help="seeded property-test harness")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_case_count, default=100)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "proptest":
            verdict = proptest(args.suite, args.seed, args.cases)
            code = 0 if verdict.result["all_passed"] else 1
        else:
            try:
                with open(args.doc, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"cannot read document: {exc}", file=sys.stderr)
                return 2
            except UnicodeDecodeError as exc:
                raise DocumentError(
                    f"document is not UTF-8: {exc.reason} at byte {exc.start}", path="$"
                ) from None
            doc = parse_document(text)
            verdict = run(args.command, doc, getattr(args, "kind", None))
            code = 0
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NestlabError as exc:
        verdict = Verdict(args.command, {
            "error": {"type": type(exc).__name__, "message": str(exc)}
        })
        code = 1
    except Exception as exc:  # a fault in nestlab itself: no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(verdict.to_json() if args.format == "json" else verdict.to_table())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (say, `| head -1`): point stdout at devnull so
        # that the flush at exit does not fail again, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
