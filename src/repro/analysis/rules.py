"""Built-in reglint rules.

Numeric-hygiene rules (RL1xx) police the tolerance handling the
reg-cluster model is acutely sensitive to; the paper-awareness rule
(RL201) keeps docstring citations honest against PAPER.md.  The full
catalog with rationale lives in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.framework import (
    FileContext,
    Rule,
    Severity,
    Violation,
    register_rule,
)
from repro.analysis.paper import PaperReferences, load_paper_references, scan_citations

__all__ = [
    "FloatEqualityRule",
    "MutableDefaultRule",
    "BroadExceptRule",
    "FloatAccumulationRule",
    "MissingAnnotationsRule",
    "PerGeneLoopRule",
    "PrintCallRule",
    "PaperReferenceRule",
]

#: Modules allowed to compare floats exactly: they *implement* the
#: tolerance boundary everything else must go through.
TOLERANCE_MODULES = ("repro/core/numeric.py",)

#: Modules on the mining hot path, where float accumulation must be
#: compensated (math.fsum) or vectorized (numpy pairwise summation).
HOT_PATH_PACKAGES = ("repro/core/", "repro/eval/", "repro/bench/")


def _is_float_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register_rule
class FloatEqualityRule(Rule):
    """RL101: exact ``==``/``!=`` against a float literal.

    ``denominator == 0.0`` silently misses values within rounding noise
    of zero; the miner's thresholds (Eq. 3-4) and coherence checks
    (Lemma 3.2) must route through :mod:`repro.core.numeric` instead.
    Test files are exempt: asserting an exact expected value is the
    point of a test.
    """

    id = "RL101"
    title = "exact float equality"
    severity = Severity.ERROR
    rationale = (
        "exact float comparison breaks tolerance handling; use "
        "repro.core.numeric.near_zero / near_equal or math.isclose"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file():
            return False
        return not ctx.in_package(*TOLERANCE_MODULES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_float_constant(operand) for operand in operands):
                yield self.violation(
                    ctx,
                    node,
                    "exact float equality; use near_zero()/near_equal() "
                    "from repro.core.numeric (or math.isclose) instead",
                )


_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


@register_rule
class MutableDefaultRule(Rule):
    """RL102: mutable default argument values.

    A ``def f(cache={})`` default is created once and shared across
    calls — state leaks between invocations (and between tests).
    """

    id = "RL102"
    title = "mutable default argument"
    severity = Severity.ERROR
    rationale = "default values are evaluated once and shared across calls"

    @staticmethod
    def _is_mutable(node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        ctx,
                        default,
                        f"mutable default argument in {name}(); "
                        "use None and create the value inside the function",
                    )


_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


@register_rule
class BroadExceptRule(Rule):
    """RL103: bare or overbroad ``except`` that swallows the error.

    ``except:`` and ``except Exception:`` hide ZeroDivisionError,
    ValueError and friends that the numeric code raises deliberately.
    A handler that re-raises (``raise`` anywhere in its body) is
    accepted — narrowing before re-raising is a legitimate pattern.
    """

    id = "RL103"
    title = "bare or overbroad except"
    severity = Severity.ERROR
    rationale = "swallowing broad exceptions hides numeric-invariant failures"

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        kind = handler.type
        if kind is None:
            return True
        names: List[ast.expr] = (
            list(kind.elts) if isinstance(kind, ast.Tuple) else [kind]
        )
        return any(
            isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS
            for name in names
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(inner, ast.Raise)
            for stmt in handler.body
            for inner in ast.walk(stmt)
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and not self._reraises(node):
                label = "bare except" if node.type is None else "overbroad except"
                yield self.violation(
                    ctx,
                    node,
                    f"{label} swallows errors; catch the specific exception "
                    "or re-raise",
                )


@register_rule
class FloatAccumulationRule(Rule):
    """RL104: built-in ``sum()`` on a mining hot path.

    Naive left-to-right float summation accumulates O(n) rounding error;
    on hot paths (core/eval/bench) expression values must be accumulated
    with ``math.fsum`` or vectorized numpy sums (pairwise summation).
    Integer counts are fine — suppress with ``# reglint: disable=RL104``.
    """

    id = "RL104"
    title = "uncompensated float accumulation"
    severity = Severity.ERROR
    rationale = (
        "built-in sum() accumulates rounding error linearly; hot paths "
        "must use math.fsum or numpy"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*HOT_PATH_PACKAGES) and not ctx.is_test_file()

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "built-in sum() on a hot path; use math.fsum (floats), "
                    "numpy (arrays), or suppress if summing integers",
                )


@register_rule
class MissingAnnotationsRule(Rule):
    """RL105: public ``repro.core`` function without full annotations.

    The numeric invariants live in ``repro.core``; its public surface
    must be fully typed so ``mypy --strict`` can see threshold and
    index types end to end.
    """

    id = "RL105"
    title = "missing type annotations on public core API"
    severity = Severity.ERROR
    rationale = "repro.core's public surface is the typed boundary of the miner"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro/core/") and not ctx.is_test_file()

    @staticmethod
    def _public_functions(
        tree: ast.Module,
    ) -> Iterator[Tuple[str, ast.FunctionDef]]:
        """Top-level functions and methods of top-level classes."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member

    @staticmethod
    def _missing(func: ast.FunctionDef) -> List[str]:
        missing: List[str] = []
        args = func.args
        positional = [*args.posonlyargs, *args.args]
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        for variadic in (args.vararg, args.kwarg):
            if variadic is not None and variadic.annotation is None:
                missing.append(variadic.arg)
        if func.returns is None:
            missing.append("return")
        return missing

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for qualname, func in self._public_functions(ctx.tree):
            short = qualname.rsplit(".", 1)[-1]
            if short.startswith("_") and not (
                short.startswith("__") and short.endswith("__")
            ):
                continue
            missing = self._missing(func)
            if missing:
                yield self.violation(
                    ctx,
                    func,
                    f"public function {qualname}() missing annotations "
                    f"for: {', '.join(missing)}",
                )


#: Modules whose search-time code must not loop over genes in Python —
#: they implement (or feed) the miner's inner loop, where per-gene
#: Python iteration costs microseconds per element times millions of
#: elements.  One-time *builders* (kernel packing) legitimately chunk by
#: gene and carry line suppressions.
HOT_LOOP_MODULES = (
    "repro/core/miner.py",
    "repro/core/window.py",
    "repro/core/kernels.py",
    "repro/core/rwave.py",
)


@register_rule
class PerGeneLoopRule(Rule):
    """RL106: Python-level per-gene loop in a mining hot-path module.

    ``for i in range(n_genes)`` (or a comprehension over it) iterates
    the gene axis in the interpreter; on the hot path the gene axis is
    the large one (thousands of elements per search node) and must be
    traversed with vectorized numpy operations instead.  Deliberate
    one-time builders suppress with ``# reglint: disable=RL106``.
    """

    id = "RL106"
    title = "per-gene Python loop on a mining hot path"
    severity = Severity.ERROR
    rationale = (
        "interpreting the gene axis costs microseconds per element; "
        "hot-path code must vectorize over genes with numpy"
    )

    #: Identifiers that mark a loop bound as spanning the gene axis.
    _GENE_COUNT_NAMES = frozenset({"n_genes", "num_genes", "gene_count"})

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*HOT_LOOP_MODULES) and not ctx.is_test_file()

    @classmethod
    def _spans_genes(cls, bound: ast.expr) -> bool:
        """Does a ``range()`` argument reference a gene count?"""
        for node in ast.walk(bound):
            if isinstance(node, ast.Name) and node.id in cls._GENE_COUNT_NAMES:
                return True
            if (
                isinstance(node, ast.Attribute)
                and node.attr in cls._GENE_COUNT_NAMES
            ):
                return True
        return False

    @classmethod
    def _is_per_gene_range(cls, iterable: ast.expr) -> bool:
        return (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range"
            and any(cls._spans_genes(arg) for arg in iterable.args)
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            iterables: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if self._is_per_gene_range(iterable):
                    yield self.violation(
                        ctx,
                        iterable,
                        "Python-level loop over the gene axis on a hot "
                        "path; vectorize with numpy (or suppress on a "
                        "one-time builder)",
                    )


#: Modules whose *job* is writing to stdout: the CLI front-ends.
_PRINT_ALLOWED_NAMES = frozenset({"cli.py", "__main__.py"})


@register_rule
class PrintCallRule(Rule):
    """RL107: bare ``print()`` in library code.

    Library and service modules must emit events through
    :mod:`repro.obs.log` (structured, level-filtered, capturable) —
    a stray ``print`` bypasses the logging configuration, corrupts
    piped CLI output, and is invisible to the daemon's JSON log
    stream.  Only the CLI front-ends (``cli.py``, ``__main__.py``)
    own stdout; deliberate report writers suppress with
    ``# reglint: disable=RL107`` (or ``disable-file`` for a module
    whose whole purpose is console output, like the bench reporter).
    """

    id = "RL107"
    title = "bare print() in library code"
    severity = Severity.ERROR
    rationale = (
        "library output must go through repro.obs.log so the daemon's "
        "structured log stream sees it; only CLI entry points own stdout"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_test_file():
            return False
        if ctx.path.name in _PRINT_ALLOWED_NAMES:
            return False
        return ctx.in_package("repro/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "bare print() in library code; use repro.obs.log "
                    "(get_logger) or move the output to a CLI entry point",
                )


_PAPER_CACHE: Dict[Path, PaperReferences] = {}


def _references_for(ctx: FileContext) -> PaperReferences:
    refs = ctx.extra.get("paper_references")
    if isinstance(refs, PaperReferences):
        return refs
    anchor = ctx.path.resolve().parent
    if anchor not in _PAPER_CACHE:
        _PAPER_CACHE[anchor] = load_paper_references(search_from=anchor)
    return _PAPER_CACHE[anchor]


@register_rule
class PaperReferenceRule(Rule):
    """RL201: docstring cites a paper artifact that PAPER.md lacks.

    Every ``Eq. N`` / ``Lemma N.N`` / ``Definition N.N`` / ``Fig. N`` /
    ``Table N`` / ``Section N`` a docstring names must exist in the
    paper's inventory (PAPER.md), so code claiming to implement Eq. 7
    can be trusted to mean the real Eq. 7.  Silent when no PAPER.md is
    found.
    """

    id = "RL201"
    title = "unknown paper reference in docstring"
    severity = Severity.ERROR
    rationale = "docstring citations must resolve against PAPER.md"

    _LABELS = {
        "eq": "Eq.",
        "lemma": "Lemma",
        "definition": "Definition",
        "figure": "Figure",
        "table": "Table",
        "section": "Section",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        references = _references_for(ctx)
        if len(references) == 0:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            docstring = ast.get_docstring(node, clean=False)
            if not docstring:
                continue
            anchor: ast.AST = node.body[0] if isinstance(node, ast.Module) else node
            for citation in dict.fromkeys(scan_citations(docstring)):
                if citation not in references:
                    kind, number = citation
                    label = self._LABELS.get(kind, kind)
                    where = (
                        "module docstring"
                        if isinstance(node, ast.Module)
                        else f"docstring of {getattr(node, 'name', '?')}"
                    )
                    yield self.violation(
                        ctx,
                        anchor,
                        f"{where} cites {label} {number}, which does not "
                        f"exist in {references.source}",
                    )
