"""Kernel DSL frontend: parse row-oriented kernels, lower to generic ops.

The DSL is a small Triton-like surface (grammar in docs/dsl_grammar.md):
whole-tensor loads, elementwise expressions, axis reductions (sum/max), and
one store per output parameter. Lowering emits one generic per elementwise
statement and one per reduction, with projection maps handling reduced and
broadcast operands, matching the shape of the row-program listings the IR
is modeled on.

Dimensions may be symbolic (`x: f32[N]`); `lower_to_generics` resolves them
through the `dims` argument, and symbols are usable as scalar constants in
expressions (NUM_COLS-style).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

import numpy as np

from . import ir
from .ir import AffineIndexMap, GenericOp, KernelProgram, Payload, Reduction, TensorDecl
from .numerics import F32, apply_binary, apply_unary, ordered_fold


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int    # 1-based
    column: int  # 1-based
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}:{span.column}: {message}")
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# Dims are identity-matched: equal symbols (or equal literals) are the same
# dimension everywhere in a kernel.
DimRef = tuple[str, Union[str, int]]  # ("sym", name) | ("lit", value)


@dataclass(frozen=True)
class Param:
    name: str
    dtype: str  # "f32" | "f16"
    dims: tuple[Union[int, str], ...]
    span: SourceSpan


@dataclass(frozen=True)
class ENum:
    value: float
    span: SourceSpan


@dataclass(frozen=True)
class EName:
    name: str
    span: SourceSpan


@dataclass(frozen=True)
class ELoad:
    tensor: str
    span: SourceSpan


@dataclass(frozen=True)
class EUnary:
    op: str  # "neg"
    arg: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class EBin:
    op: str  # add sub mul div max2
    lhs: "Expr"
    rhs: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class ECall:
    fn: str  # exp tanh sqrt rsqrt
    arg: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class EReduce:
    kind: str  # "sum" | "max"
    arg: "Expr"
    axis: int
    span: SourceSpan


Expr = Union[ENum, EName, ELoad, EUnary, EBin, ECall, EReduce]


@dataclass(frozen=True)
class ConstDef:
    name: str
    value: float
    span: SourceSpan


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    span: SourceSpan


@dataclass(frozen=True)
class Store:
    tensor: str
    expr: Expr
    span: SourceSpan


Stmt = Union[ConstDef, Assign, Store]


@dataclass(frozen=True)
class KernelAst:
    name: str
    params: tuple[Param, ...]
    stmts: tuple[Stmt, ...]
    span: SourceSpan


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = ("(", ")", "{", "}", "[", "]", ",", ":", "=", "+", "-", "*", "/")


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # ident number punct eof
    text: str
    span: SourceSpan


def _lex(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col, 1)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Tok("ident", source[i:j], SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", SourceSpan(line, col, j - i)) from None
            toks.append(_Tok("number", text, SourceSpan(line, col, j - i)))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Tok("punct", c, span))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", span)
    toks.append(_Tok("eof", "", SourceSpan(line, col, 0)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ELEMENTWISE_FNS = ("exp", "tanh", "sqrt", "rsqrt")
_REDUCE_FNS = ("sum", "max")


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text or "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", t.span)
        return self.next()

    def parse_kernel(self) -> KernelAst:
        kw = self.expect("ident", "kernel")
        name = self.expect("ident").text
        self.expect("punct", "(")
        params = [self.parse_param()]
        while self.peek().text == ",":
            self.next()
            params.append(self.parse_param())
        self.expect("punct", ")")
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        while self.peek().text != "}":
            stmts.append(self.parse_stmt())
        self.expect("punct", "}")
        self.expect("eof")
        return KernelAst(name, tuple(params), tuple(stmts), kw.span)

    def parse_param(self) -> Param:
        name = self.expect("ident")
        self.expect("punct", ":")
        dtype = self.expect("ident")
        if dtype.text not in ("f32", "f16"):
            raise ParseError(f"unknown element type {dtype.text!r}", dtype.span)
        self.expect("punct", "[")
        dims: list[Union[int, str]] = [self.parse_dim()]
        while self.peek().text == ",":
            self.next()
            dims.append(self.parse_dim())
        self.expect("punct", "]")
        return Param(name.text, dtype.text, tuple(dims), name.span)

    def parse_dim(self) -> Union[int, str]:
        t = self.peek()
        if t.kind == "number":
            self.next()
            if "." in t.text or "e" in t.text or "E" in t.text:
                raise ParseError("dimension must be an integer", t.span)
            return int(t.text)
        if t.kind == "ident":
            self.next()
            return t.text
        raise ParseError(f"expected dimension, found {t.text!r}", t.span)

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if t.kind == "ident" and t.text == "const":
            self.next()
            name = self.expect("ident")
            self.expect("punct", "=")
            neg = False
            if self.peek().text == "-":
                self.next()
                neg = True
            num = self.expect("number")
            v = float(np.float32(num.text))  # literals are f32
            return ConstDef(name.text, -v if neg else v, name.span)
        if t.kind == "ident" and t.text == "store":
            self.next()
            self.expect("punct", "(")
            tensor = self.expect("ident")
            self.expect("punct", ",")
            e = self.parse_expr()
            self.expect("punct", ")")
            return Store(tensor.text, e, t.span)
        name = self.expect("ident")
        self.expect("punct", "=")
        e = self.parse_expr()
        return Assign(name.text, e, name.span)

    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            lhs = EBin("add" if op.text == "+" else "sub", lhs, rhs, op.span)
        return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.parse_unary()
            lhs = EBin("mul" if op.text == "*" else "div", lhs, rhs, op.span)
        return lhs

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text == "-":
            self.next()
            return EUnary("neg", self.parse_unary(), t.span)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return ENum(float(np.float32(t.text)), t.span)
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect("punct", ")")
            return e
        if t.kind == "ident":
            name = self.next()
            if self.peek().text != "(":
                return EName(name.text, name.span)
            self.expect("punct", "(")
            if name.text == "load":
                tensor = self.expect("ident")
                self.expect("punct", ")")
                return ELoad(tensor.text, name.span)
            if name.text in _REDUCE_FNS:
                arg = self.parse_expr()
                self.expect("punct", ",")
                axis_kw = self.expect("ident")
                if axis_kw.text != "axis":
                    raise ParseError("reduction needs axis=<int>", axis_kw.span)
                self.expect("punct", "=")
                axis_tok = self.expect("number")
                self.expect("punct", ")")
                return EReduce(name.text, arg, int(axis_tok.text), name.span)
            if name.text == "maximum":
                a = self.parse_expr()
                self.expect("punct", ",")
                b = self.parse_expr()
                self.expect("punct", ")")
                return EBin("max2", a, b, name.span)
            if name.text in _ELEMENTWISE_FNS:
                arg = self.parse_expr()
                self.expect("punct", ")")
                return ECall(name.text, arg, name.span)
            raise ParseError(f"unknown function {name.text!r}", name.span)
        raise ParseError(f"expected expression, found {t.text or 'end of input'!r}", t.span)


# ---------------------------------------------------------------------------
# Shape inference and semantic checks
# ---------------------------------------------------------------------------


def _dimref(d: Union[int, str]) -> DimRef:
    return ("lit", d) if isinstance(d, int) else ("sym", d)


def _match_subshape(small: tuple[DimRef, ...], big: tuple[DimRef, ...]) -> Optional[tuple[int, ...]]:
    """Greedy-leftmost positions of `small` as a dim-identity subsequence of `big`."""
    pos: list[int] = []
    j = 0
    for d in small:
        while j < len(big) and big[j] != d:
            j += 1
        if j == len(big):
            return None
        pos.append(j)
        j += 1
    return tuple(pos)


def _shape_str(s: tuple[DimRef, ...]) -> str:
    return "[" + ", ".join(str(d[1]) for d in s) + "]"


class _Analysis:
    """Per-kernel semantic info: value shapes, const values, param roles."""

    def __init__(self, ast: KernelAst):
        self.ast = ast
        self.shapes: dict[str, tuple[DimRef, ...]] = {}
        self.consts: dict[str, float] = {}
        self.param_by_name = {p.name: p for p in ast.params}
        self.loaded: set[str] = set()
        self.stored: dict[str, Store] = {}
        self.dim_syms: list[str] = []
        for p in ast.params:
            for d in p.dims:
                if isinstance(d, str) and d not in self.dim_syms:
                    self.dim_syms.append(d)
        self.run()

    def run(self) -> None:
        for st in self.ast.stmts:
            if isinstance(st, ConstDef):
                if st.name in self.consts or st.name in self.shapes or st.name in self.param_by_name:
                    raise ParseError(f"redefinition of {st.name!r}", st.span)
                self.consts[st.name] = st.value
            elif isinstance(st, Assign):
                if st.name in self.consts or st.name in self.shapes or st.name in self.param_by_name:
                    raise ParseError(f"redefinition of {st.name!r}", st.span)
                self.shapes[st.name] = self.shape_of(st.expr)
            else:
                p = self.param_by_name.get(st.tensor)
                if p is None:
                    raise ParseError(f"store target {st.tensor!r} is not a parameter", st.span)
                if st.tensor in self.stored:
                    raise ParseError(f"duplicate store to {st.tensor!r}", st.span)
                if st.tensor in self.loaded:
                    raise ParseError(f"parameter {st.tensor!r} both loaded and stored", st.span)
                shape = self.shape_of(st.expr)
                want = tuple(_dimref(d) for d in p.dims)
                if shape != want:
                    raise ParseError(
                        f"store to {st.tensor!r}: value shape {_shape_str(shape)} != "
                        f"parameter shape {_shape_str(want)}", st.span)
                self.stored[st.tensor] = st
        for p in self.ast.params:
            if p.name not in self.loaded and p.name not in self.stored:
                raise ParseError(f"parameter {p.name!r} is never used", p.span)

    def combine(self, a: tuple[DimRef, ...], b: tuple[DimRef, ...], span: SourceSpan) -> tuple[DimRef, ...]:
        if a == b:
            return a
        if not a:
            return b
        if not b:
            return a
        small, big = (a, b) if len(a) < len(b) else (b, a)
        if len(small) == len(big):
            raise ParseError(f"shape mismatch: {_shape_str(a)} vs {_shape_str(b)}", span)
        if _match_subshape(small, big) is None:
            raise ParseError(
                f"shapes not broadcast-compatible: {_shape_str(a)} vs {_shape_str(b)}", span)
        return big

    def shape_of(self, e: Expr) -> tuple[DimRef, ...]:
        if isinstance(e, ENum):
            return ()
        if isinstance(e, EName):
            if e.name in self.shapes:
                return self.shapes[e.name]
            if e.name in self.consts or e.name in self.dim_syms:
                return ()
            if e.name in self.param_by_name:
                raise ParseError(f"tensor parameter {e.name!r} must be read via load()", e.span)
            raise ParseError(f"undefined identifier {e.name!r}", e.span)
        if isinstance(e, ELoad):
            p = self.param_by_name.get(e.tensor)
            if p is None:
                raise ParseError(f"load of unknown parameter {e.tensor!r}", e.span)
            if e.tensor in self.stored:
                raise ParseError(f"parameter {e.tensor!r} both loaded and stored", e.span)
            self.loaded.add(e.tensor)
            return tuple(_dimref(d) for d in p.dims)
        if isinstance(e, EUnary):
            return self.shape_of(e.arg)
        if isinstance(e, ECall):
            return self.shape_of(e.arg)
        if isinstance(e, EBin):
            return self.combine(self.shape_of(e.lhs), self.shape_of(e.rhs), e.span)
        if isinstance(e, EReduce):
            s = self.shape_of(e.arg)
            if not s:
                raise ParseError(f"{e.kind} of a scalar has no axis", e.span)
            if e.axis < 0 or e.axis >= len(s):
                raise ParseError(
                    f"reduction axis {e.axis} invalid for operand of rank {len(s)}", e.span)
            return s[: e.axis] + s[e.axis + 1:]
        raise TypeError(type(e))


def parse_kernel(source: str) -> KernelAst:
    """Parse and semantically check a kernel; raises ParseError with a span."""
    ast = _Parser(_lex(source)).parse_kernel()
    _Analysis(ast)  # raises on semantic errors
    return ast


# ---------------------------------------------------------------------------
# Canonical source printer (round-trip support)
# ---------------------------------------------------------------------------


def _print_expr(e: Expr) -> str:
    if isinstance(e, ENum):
        return ir.fmt_f32(e.value)
    if isinstance(e, EName):
        return e.name
    if isinstance(e, ELoad):
        return f"load({e.tensor})"
    if isinstance(e, EUnary):
        return f"(-{_print_expr(e.arg)})"
    if isinstance(e, ECall):
        return f"{e.fn}({_print_expr(e.arg)})"
    if isinstance(e, EReduce):
        return f"{e.kind}({_print_expr(e.arg)}, axis={e.axis})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
    if e.op == "max2":
        return f"maximum({_print_expr(e.lhs)}, {_print_expr(e.rhs)})"
    return f"({_print_expr(e.lhs)} {sym[e.op]} {_print_expr(e.rhs)})"


def print_kernel_source(ast: KernelAst) -> str:
    lines = []
    params = ", ".join(
        f"{p.name}: {p.dtype}[{', '.join(str(d) for d in p.dims)}]" for p in ast.params)
    lines.append(f"kernel {ast.name}({params}) {{")
    for st in ast.stmts:
        if isinstance(st, ConstDef):
            lines.append(f"    const {st.name} = {ir.fmt_f32(st.value)}")
        elif isinstance(st, Assign):
            lines.append(f"    {st.name} = {_print_expr(st.expr)}")
        else:
            lines.append(f"    store({st.tensor}, {_print_expr(st.expr)})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def strip_spans(node):
    """Structural copy with all spans zeroed, for span-insensitive equality."""
    zero = SourceSpan(0, 0, 0)
    if isinstance(node, tuple):
        return tuple(strip_spans(n) for n in node)
    if hasattr(node, "span"):
        kw = {}
        for f in node.__dataclass_fields__:
            v = getattr(node, f)
            kw[f] = zero if f == "span" else strip_spans(v)
        return type(node)(**kw)
    return node


# ---------------------------------------------------------------------------
# Direct AST evaluator (whole-tensor, f32; the lowering's bit-exact twin)
# ---------------------------------------------------------------------------


def resolve_dims(ast: KernelAst, dims: Optional[Mapping[str, int]]) -> dict[str, int]:
    out: dict[str, int] = dict(dims or {})
    for p in ast.params:
        for d in p.dims:
            if isinstance(d, str) and d not in out:
                raise ValueError(f"kernel {ast.name}: unresolved dimension symbol {d!r}")
    for name, v in out.items():
        if v < 1:
            raise ValueError(f"dimension {name}={v} must be >= 1")
    return out


def infer_dims_from_inputs(ast: KernelAst, inputs: Mapping[str, np.ndarray]) -> dict[str, int]:
    """Bind dimension symbols from the shapes of provided input tensors."""
    an = _Analysis(ast)
    dims: dict[str, int] = {}
    for p in ast.params:
        if p.name not in an.loaded or p.name not in inputs:
            continue
        shape = np.asarray(inputs[p.name]).shape
        if len(shape) != len(p.dims):
            raise ValueError(f"input {p.name}: rank {len(shape)} != declared {len(p.dims)}")
        for d, s in zip(p.dims, shape):
            if isinstance(d, str):
                if dims.setdefault(d, int(s)) != int(s):
                    raise ValueError(f"dimension {d} bound inconsistently")
            elif d != s:
                raise ValueError(f"input {p.name}: extent {s} != declared {d}")
    return dims


def _aligned(arr: np.ndarray, shape: tuple[DimRef, ...], target: tuple[DimRef, ...]) -> np.ndarray:
    """Expand `arr` (of dim identity `shape`) for broadcasting against `target`."""
    if shape == target:
        return arr
    if not shape:
        return arr
    pos = _match_subshape(shape, target)
    assert pos is not None
    out = arr
    for j in range(len(target)):
        if j not in pos:
            out = np.expand_dims(out, j)
    return out


def evaluate_ast(
    ast: KernelAst,
    inputs: Mapping[str, np.ndarray],
    dims: Optional[Mapping[str, int]] = None,
) -> dict[str, np.ndarray]:
    """Evaluate the kernel statement-by-statement on f32 tensors."""
    an = _Analysis(ast)
    dimv = resolve_dims(ast, dims if dims is not None else infer_dims_from_inputs(ast, inputs))
    values: dict[str, tuple[np.ndarray, tuple[DimRef, ...]]] = {}
    scalars: dict[str, np.float32] = {s: F32(dimv[s]) for s in an.dim_syms}

    def ev(e: Expr) -> tuple[np.ndarray, tuple[DimRef, ...]]:
        if isinstance(e, ENum):
            return F32(e.value), ()
        if isinstance(e, EName):
            if e.name in values:
                return values[e.name]
            if e.name in an.consts:
                return F32(an.consts[e.name]), ()
            return scalars[e.name], ()
        if isinstance(e, ELoad):
            p = an.param_by_name[e.tensor]
            arr = np.ascontiguousarray(inputs[e.tensor], dtype=np.float32)
            return arr, tuple(_dimref(d) for d in p.dims)
        if isinstance(e, EUnary):
            a, s = ev(e.arg)
            return apply_unary("neg", a), s
        if isinstance(e, ECall):
            a, s = ev(e.arg)
            return apply_unary(e.fn, a), s
        if isinstance(e, EBin):
            a, sa = ev(e.lhs)
            b, sb = ev(e.rhs)
            s = sa if len(sa) >= len(sb) else sb
            return apply_binary(e.op, _aligned(a, sa, s), _aligned(b, sb, s)), s
        if isinstance(e, EReduce):
            a, s = ev(e.arg)
            init = 0.0 if e.kind == "sum" else -np.inf
            return ordered_fold(np.asarray(a), (e.axis,), e.kind, init), s[: e.axis] + s[e.axis + 1:]
        raise TypeError(type(e))

    outputs: dict[str, np.ndarray] = {}
    for st in ast.stmts:
        if isinstance(st, Assign):
            values[st.name] = ev(st.expr)
        elif isinstance(st, Store):
            arr, _ = ev(st.expr)
            outputs[st.tensor] = np.asarray(arr, dtype=np.float32)
    return outputs


# ---------------------------------------------------------------------------
# Lowering to generic ops
# ---------------------------------------------------------------------------


class LoweringError(Exception):
    pass


class _Lowering:
    def __init__(self, ast: KernelAst, dims: dict[str, int]):
        self.ast = ast
        self.an = _Analysis(ast)
        self.dims = dims
        self.decls: list[TensorDecl] = []
        self.ops: list[GenericOp] = []
        self.values: dict[str, tuple[str, tuple[DimRef, ...]]] = {}  # name -> (tensor, dimrefs)
        self.scalars: dict[str, float] = {}  # assigned names whose value folds to one f32
        self.n_tmp = 0
        self.n_gen = 0

    def dim_extent(self, d: DimRef) -> int:
        return d[1] if d[0] == "lit" else self.dims[d[1]]

    def shape_ints(self, refs: tuple[DimRef, ...]) -> tuple[int, ...]:
        if not refs:
            return (1,)
        return tuple(self.dim_extent(d) for d in refs)

    def new_temp(self, refs: tuple[DimRef, ...]) -> str:
        name = f"t{self.n_tmp}"
        self.n_tmp += 1
        self.decls.append(TensorDecl(name, self.shape_ints(refs), "f32", "ddr", "temp"))
        return name

    def gen_name(self) -> str:
        name = f"g{self.n_gen}"
        self.n_gen += 1
        return name

    def leaf_map(self, refs: tuple[DimRef, ...], domain: tuple[DimRef, ...]) -> AffineIndexMap:
        if not refs:
            return AffineIndexMap((None,))
        pos = _match_subshape(refs, domain)
        if pos is None:
            raise LoweringError(f"operand shape {_shape_str(refs)} not alignable to {_shape_str(domain)}")
        return AffineIndexMap(pos)

    def scalar_value(self, e: Expr) -> Optional[float]:
        """f32 constant folding for dim symbols, consts, folded names, and pure-scalar math."""
        if isinstance(e, ENum):
            return float(F32(e.value))
        if isinstance(e, EName):
            if e.name in self.scalars:
                return self.scalars[e.name]
            if e.name in self.an.consts:
                return float(F32(self.an.consts[e.name]))
            if e.name in self.an.dim_syms:
                return float(F32(self.dims[e.name]))
            return None
        if isinstance(e, EUnary):
            v = self.scalar_value(e.arg)
            return None if v is None else float(apply_unary("neg", F32(v)))
        if isinstance(e, ECall):
            v = self.scalar_value(e.arg)
            return None if v is None else float(apply_unary(e.fn, F32(v)))
        if isinstance(e, EBin):
            a = self.scalar_value(e.lhs)
            b = self.scalar_value(e.rhs)
            if a is None or b is None:
                return None
            return float(apply_binary(e.op, F32(a), F32(b)))
        return None

    def as_payload(self, e: Expr, domain: tuple[DimRef, ...],
                   leaves: list[tuple[str, AffineIndexMap]]) -> Payload:
        sv = self.scalar_value(e)
        if sv is not None:
            return Payload.const(sv)
        if isinstance(e, (EName, ELoad, EReduce)):
            tensor, refs = self.tensor_leaf(e)
            m = self.leaf_map(refs, domain)
            for i, (n, em) in enumerate(leaves):
                if n == tensor and em == m:
                    return Payload.arg(i)
            leaves.append((tensor, m))
            return Payload.arg(len(leaves) - 1)
        if isinstance(e, EUnary):
            return Payload.unary("neg", self.as_payload(e.arg, domain, leaves))
        if isinstance(e, ECall):
            return Payload.unary(e.fn, self.as_payload(e.arg, domain, leaves))
        if isinstance(e, EBin):
            return Payload.binary(e.op, self.as_payload(e.lhs, domain, leaves),
                                  self.as_payload(e.rhs, domain, leaves))
        raise LoweringError(f"unsupported construct {type(e).__name__}")

    def tensor_leaf(self, e: Expr) -> tuple[str, tuple[DimRef, ...]]:
        if isinstance(e, EName):
            return self.values[e.name]
        if isinstance(e, ELoad):
            p = self.an.param_by_name[e.tensor]
            return e.tensor, tuple(_dimref(d) for d in p.dims)
        if isinstance(e, EReduce):
            return self.lower_reduce(e, None)
        raise LoweringError(f"not a tensor value: {type(e).__name__}")

    def lower_reduce(self, e: EReduce, out_tensor: Optional[str]) -> tuple[str, tuple[DimRef, ...]]:
        arg_shape = self.an.shape_of(e.arg)
        out_refs = arg_shape[: e.axis] + arg_shape[e.axis + 1:]
        leaves: list[tuple[str, AffineIndexMap]] = []
        payload = self.as_payload(e.arg, arg_shape, leaves)
        dest = out_tensor or self.new_temp(out_refs)
        iterators = tuple("reduction" if i == e.axis else "parallel" for i in range(len(arg_shape)))
        out_map = AffineIndexMap(tuple(i for i in range(len(arg_shape)) if i != e.axis) or (None,))
        red = Reduction.sum() if e.kind == "sum" else Reduction.max()
        self.ops.append(GenericOp(
            name=self.gen_name(),
            domain=tuple(self.dim_extent(d) for d in arg_shape),
            inputs=tuple(n for n, _ in leaves),
            outputs=(dest,),
            maps=tuple(m for _, m in leaves) + (out_map,),
            iterators=iterators,
            payloads=(payload,),
            reductions=(red,),
        ))
        return dest, out_refs

    def lower_value(self, e: Expr, out_tensor: Optional[str]) -> tuple[str, tuple[DimRef, ...]]:
        """Lower an expression into a tensor; reuse `out_tensor` as destination."""
        if isinstance(e, EReduce):
            return self.lower_reduce(e, out_tensor)
        if isinstance(e, (EName, ELoad)) and out_tensor is None:
            return self.tensor_leaf(e)
        domain = self.an.shape_of(e)
        leaves: list[tuple[str, AffineIndexMap]] = []
        payload = self.as_payload(e, domain, leaves)
        dest = out_tensor or self.new_temp(domain)
        rank = max(len(domain), 1)  # a rank-0 value is one point, as its temp is
        self.ops.append(GenericOp(
            name=self.gen_name(),
            domain=self.shape_ints(domain),
            inputs=tuple(n for n, _ in leaves),
            outputs=(dest,),
            maps=tuple(m for _, m in leaves) + (AffineIndexMap.identity(rank),),
            iterators=("parallel",) * rank,
            payloads=(payload,),
        ))
        return dest, domain

    def retarget(self, temp: str, out: str) -> bool:
        """Point the defining generic of `temp` at `out`; drop the temp decl."""
        for i, op in enumerate(self.ops):
            if temp in op.outputs:
                outs = tuple(out if o == temp else o for o in op.outputs)
                self.ops[i] = replace(op, outputs=outs)
                self.decls = [d for d in self.decls if d.name != temp]
                return True
        return False

    def run(self) -> KernelProgram:
        for p in self.ast.params:
            role = "output" if p.name in self.an.stored else "input"
            shape = tuple(self.dim_extent(_dimref(d)) for d in p.dims)
            self.decls.append(TensorDecl(p.name, shape, p.dtype, "ddr", role))
        for st in self.ast.stmts:
            if isinstance(st, ConstDef):
                continue
            if isinstance(st, Assign):
                v = self.scalar_value(st.expr)
                if v is not None:
                    self.scalars[st.name] = v
                else:
                    self.values[st.name] = self.lower_value(st.expr, None)
            else:
                if isinstance(st.expr, EName) and st.expr.name in self.values:
                    temp, _ = self.values[st.expr.name]
                    if self.an.param_by_name.get(temp) is None and self.retarget(temp, st.tensor):
                        self.values[st.expr.name] = (st.tensor, self.values[st.expr.name][1])
                        continue
                self.lower_value(st.expr, st.tensor)
        return KernelProgram(self.ast.name, tuple(self.decls), tuple(self.ops), stage="lowered")


def lower_to_generics(ast: KernelAst, dims: Optional[Mapping[str, int]] = None) -> KernelProgram:
    """Lower a checked AST to a verifying generic-op program.

    `dims` binds symbolic dimensions; literal-only kernels need none.
    """
    resolved = resolve_dims(ast, dims)
    program = _Lowering(ast, resolved).run()
    report = ir.verify(program)
    if not report.ok:
        raise LoweringError(f"lowered program does not verify:\n{report}")
    return program
