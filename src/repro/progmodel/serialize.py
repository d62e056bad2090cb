"""Wire serialization of programs.

Fix distribution ships whole program versions to pods (paper Fig. 1:
"fixes" flow from the hive to the pods). This module gives the IR a
compact, self-describing binary encoding so updates can cross the
simulated network as bytes, exactly like traces do — and so a real
deployment could persist or diff program versions.

The format is a tagged pre-order walk of the IR with varint integers
and length-prefixed UTF-8 strings (see :mod:`repro.wire`); it
round-trips every construct the IR supports and validates the result
on decode. A fix payload arrives off the network, so decode raises
TraceError on any malformed bytes, in time proportional to their
length, and ProgramModelError when well-formed bytes describe an
invalid program.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ProgramModelError, TraceError
from repro.progmodel.ir import (
    BINARY_OPS,
    UNARY_OPS,
    Assert,
    Assign,
    BinOp,
    Block,
    Branch,
    Call,
    Const,
    Crash,
    Expr,
    Function,
    Halt,
    Input,
    Instruction,
    Jump,
    LoadGlobal,
    Lock,
    Program,
    Return,
    StoreGlobal,
    Syscall,
    Terminator,
    UnOp,
    Unlock,
    Var,
)
from repro.wire import Reader, write_string, write_varint, write_zigzag

__all__ = ["encode_program", "decode_program", "encode_block"]

_FORMAT_VERSION = 1

# Node tags.
_EXPR_CONST, _EXPR_VAR, _EXPR_INPUT, _EXPR_BIN, _EXPR_UN = range(5)
(_I_ASSIGN, _I_STORE, _I_LOAD, _I_LOCK, _I_UNLOCK, _I_SYSCALL, _I_ASSERT,
 _I_CRASH, _I_CALL) = range(9)
_T_BRANCH, _T_JUMP, _T_RETURN, _T_HALT = range(4)

# Deepest expression nesting decode accepts, counting a leaf as one
# level. Demo, corpus and registry programs nest at most six levels; the
# cap keeps a hostile payload from exhausting the interpreter stack.
_MAX_EXPR_DEPTH = 200


# -- expressions ---------------------------------------------------------------


def _write_expr(out: bytearray, expr: Expr) -> None:
    if isinstance(expr, Const):
        write_varint(out, _EXPR_CONST)
        write_zigzag(out, expr.value)
    elif isinstance(expr, Var):
        write_varint(out, _EXPR_VAR)
        write_string(out, expr.name)
    elif isinstance(expr, Input):
        write_varint(out, _EXPR_INPUT)
        write_string(out, expr.name)
    elif isinstance(expr, BinOp):
        write_varint(out, _EXPR_BIN)
        write_varint(out, BINARY_OPS.index(expr.op))
        _write_expr(out, expr.left)
        _write_expr(out, expr.right)
    elif isinstance(expr, UnOp):
        write_varint(out, _EXPR_UN)
        write_varint(out, UNARY_OPS.index(expr.op))
        _write_expr(out, expr.operand)
    else:
        raise ProgramModelError(f"cannot serialize expression {expr!r}")


def _read_expr(r: Reader, depth: int = 1) -> Expr:
    if depth > _MAX_EXPR_DEPTH:
        raise TraceError(
            f"expression nested deeper than {_MAX_EXPR_DEPTH} levels")
    tag = r.varint()
    if tag == _EXPR_CONST:
        return Const(r.zigzag())
    if tag == _EXPR_VAR:
        return Var(r.string())
    if tag == _EXPR_INPUT:
        return Input(r.string())
    if tag == _EXPR_BIN:
        op = r.pick(BINARY_OPS)
        left = _read_expr(r, depth + 1)
        right = _read_expr(r, depth + 1)
        return BinOp(op, left, right)
    if tag == _EXPR_UN:
        op = r.pick(UNARY_OPS)
        return UnOp(op, _read_expr(r, depth + 1))
    raise TraceError(f"bad expression tag {tag}")


# -- instructions ---------------------------------------------------------------

def _write_instruction(out: bytearray, instr: Instruction) -> None:
    if isinstance(instr, Assign):
        write_varint(out, _I_ASSIGN)
        write_string(out, instr.dst)
        _write_expr(out, instr.expr)
    elif isinstance(instr, StoreGlobal):
        write_varint(out, _I_STORE)
        write_string(out, instr.name)
        _write_expr(out, instr.expr)
    elif isinstance(instr, LoadGlobal):
        write_varint(out, _I_LOAD)
        write_string(out, instr.dst)
        write_string(out, instr.name)
    elif isinstance(instr, Lock):
        write_varint(out, _I_LOCK)
        write_string(out, instr.lock_name)
    elif isinstance(instr, Unlock):
        write_varint(out, _I_UNLOCK)
        write_string(out, instr.lock_name)
    elif isinstance(instr, Syscall):
        write_varint(out, _I_SYSCALL)
        write_string(out, instr.dst)
        write_string(out, instr.name)
        write_varint(out, len(instr.args))
        for arg in instr.args:
            _write_expr(out, arg)
    elif isinstance(instr, Assert):
        write_varint(out, _I_ASSERT)
        _write_expr(out, instr.cond)
        write_string(out, instr.message)
    elif isinstance(instr, Crash):
        write_varint(out, _I_CRASH)
        write_string(out, instr.message)
    elif isinstance(instr, Call):
        write_varint(out, _I_CALL)
        write_string(out, instr.dst or "")
        write_string(out, instr.callee)
        write_varint(out, len(instr.args))
        for arg in instr.args:
            _write_expr(out, arg)
    else:
        raise ProgramModelError(f"cannot serialize instruction {instr!r}")


def _read_instruction(r: Reader) -> Instruction:
    tag = r.varint()
    if tag == _I_ASSIGN:
        return Assign(r.string(), _read_expr(r))
    if tag == _I_STORE:
        return StoreGlobal(r.string(), _read_expr(r))
    if tag == _I_LOAD:
        return LoadGlobal(r.string(), r.string())
    if tag == _I_LOCK:
        return Lock(r.string())
    if tag == _I_UNLOCK:
        return Unlock(r.string())
    if tag == _I_SYSCALL:
        dst = r.string()
        name = r.string()
        args = tuple(_read_expr(r) for _ in range(r.count()))
        return Syscall(dst, name, args)
    if tag == _I_ASSERT:
        return Assert(_read_expr(r), r.string())
    if tag == _I_CRASH:
        return Crash(r.string())
    if tag == _I_CALL:
        dst = r.string() or None
        callee = r.string()
        args = tuple(_read_expr(r) for _ in range(r.count()))
        return Call(dst, callee, args)
    raise TraceError(f"bad instruction tag {tag}")


def _write_terminator(out: bytearray, term: Terminator) -> None:
    if isinstance(term, Branch):
        write_varint(out, _T_BRANCH)
        _write_expr(out, term.cond)
        write_string(out, term.then_block)
        write_string(out, term.else_block)
    elif isinstance(term, Jump):
        write_varint(out, _T_JUMP)
        write_string(out, term.target)
    elif isinstance(term, Return):
        write_varint(out, _T_RETURN)
        _write_expr(out, term.value)
    elif isinstance(term, Halt):
        write_varint(out, _T_HALT)
    else:
        raise ProgramModelError(f"cannot serialize terminator {term!r}")


def _read_terminator(r: Reader) -> Terminator:
    tag = r.varint()
    if tag == _T_BRANCH:
        return Branch(_read_expr(r), r.string(), r.string())
    if tag == _T_JUMP:
        return Jump(r.string())
    if tag == _T_RETURN:
        return Return(_read_expr(r))
    if tag == _T_HALT:
        return Halt()
    raise TraceError(f"bad terminator tag {tag}")


# -- programs ---------------------------------------------------------------------

def encode_program(program: Program) -> bytes:
    """Serialize a program (including its version stamp)."""
    out = bytearray()
    write_varint(out, _FORMAT_VERSION)
    write_string(out, program.name)
    write_varint(out, program.version)
    write_varint(out, len(program.threads))
    for thread in program.threads:
        write_string(out, thread)
    write_varint(out, len(program.inputs))
    for name in sorted(program.inputs):
        lo, hi = program.inputs[name]
        write_string(out, name)
        write_zigzag(out, lo)
        write_zigzag(out, hi)
    write_varint(out, len(program.globals))
    for name in sorted(program.globals):
        write_string(out, name)
        write_zigzag(out, program.globals[name])
    write_varint(out, len(program.functions))
    for fname in sorted(program.functions):
        func = program.functions[fname]
        write_string(out, func.name)
        write_varint(out, len(func.params))
        for param in func.params:
            write_string(out, param)
        write_string(out, func.entry)
        write_varint(out, len(func.blocks))
        for label in sorted(func.blocks):
            _write_block(out, func.blocks[label])
    return bytes(out)


def encode_block(block: Block) -> bytes:
    """One block's bytes, exactly as :func:`encode_program` writes them:
    equal bytes mean the block runs the same ops."""
    out = bytearray()
    _write_block(out, block)
    return bytes(out)


def _write_block(out: bytearray, block: Block) -> None:
    write_string(out, block.label)
    write_varint(out, len(block.instructions))
    for instr in block.instructions:
        _write_instruction(out, instr)
    if block.terminator is None:
        raise ProgramModelError(f"block {block.label!r} has no terminator")
    _write_terminator(out, block.terminator)


def _sorted_name(r: Reader, table: str, previous: Optional[str]) -> str:
    """The next name of a table :func:`encode_program` writes sorted:
    it must sort strictly after ``previous``, so a payload that decodes
    is the one encoding of its program (no reordered or repeated name)."""
    name = r.string()
    if previous is not None and name <= previous:
        raise TraceError(f"{table} name {name!r} is not after {previous!r}")
    return name


def decode_program(data: bytes) -> Program:
    """Inverse of :func:`encode_program`; validates the result.

    Canonical: any payload it accepts re-encodes to the same bytes.
    """
    r = Reader(data)
    version = r.varint()
    if version != _FORMAT_VERSION:
        raise TraceError(f"unsupported program format version {version}")
    name = r.string()
    program_version = r.varint()
    threads = tuple(r.string() for _ in range(r.count()))
    inputs: Dict[str, Tuple[int, int]] = {}
    input_name = None
    for _ in range(r.count()):
        input_name = _sorted_name(r, "input", input_name)
        inputs[input_name] = (r.zigzag(), r.zigzag())
    global_vars: Dict[str, int] = {}
    global_name = None
    for _ in range(r.count()):
        global_name = _sorted_name(r, "global", global_name)
        global_vars[global_name] = r.zigzag()
    functions: Dict[str, Function] = {}
    fname = None
    for _ in range(r.count()):
        fname = _sorted_name(r, "function", fname)
        params = tuple(r.string() for _ in range(r.count()))
        entry = r.string()
        blocks: Dict[str, Block] = {}
        label = None
        for _b in range(r.count()):
            label = _sorted_name(r, "block", label)
            instructions: List[Instruction] = [
                _read_instruction(r) for _ in range(r.count())]
            terminator = _read_terminator(r)
            blocks[label] = Block(label=label, instructions=instructions,
                                  terminator=terminator)
        functions[fname] = Function(name=fname, params=params,
                                    blocks=blocks, entry=entry)
    if not r.done():
        raise TraceError("trailing bytes after program")
    program = Program(name=name, functions=functions, threads=threads,
                      inputs=inputs, globals=global_vars,
                      version=program_version)
    program.validate()
    return program
