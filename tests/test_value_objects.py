"""Value semantics of the front half's small objects.

Tokens, types, operands, line rows and symbols are slotted value classes,
immutable by convention, and registers are interned.  Their ``==``, hash,
``repr`` and ``str`` are those of the frozen dataclasses they replaced: the
expected strings below were taken from that implementation, and a value
hashes as the tuple of its fields, as a frozen dataclass does.
"""

import copy
import pickle

import pytest

from repro.compiler.dwarf import LineRow
from repro.compiler.isa import Imm, Label, Mem, Reg, Xmm
from repro.compiler.objfile import Symbol
from repro.errors import CompileError
from repro.frontend.tokens import Token
from repro.frontend.types import Type

# (value, the fields it hashes and compares as, repr, str)
VALUES = [
    (Token("kw", "int", 3, 5), ("kw", "int", 3, 5),
     "kw:'int'@3:5", "kw:'int'@3:5"),
    (Token("punct", "(", 1, 2), ("punct", "(", 1, 2),
     "punct:'('@1:2", "punct:'('@1:2"),
    (Type("double", 1, False, True, True), ("double", 1, False, True, True),
     "Type(name='double', pointer=1, reference=False, unsigned=True, "
     "const=True)", "unsigned double*"),
    (Type("int"), ("int", 0, False, False, False),
     "Type(name='int', pointer=0, reference=False, unsigned=False, "
     "const=False)", "int"),
    (Reg("rax"), ("rax",), "Reg(name='rax')", "rax"),
    (Xmm("xmm3"), ("xmm3",), "Xmm(name='xmm3')", "xmm3"),
    (Imm(-7), (-7,), "Imm(value=-7)", "$-7"),
    (Mem(base="rbp", index="rcx", scale=8, disp=-16, symbol="a"),
     ("rbp", "rcx", 8, -16, "a"),
     "Mem(base='rbp', index='rcx', scale=8, disp=-16, symbol='a')",
     "[a + rbp + rcx*8 - 16]"),
    (Mem(symbol="b"), (None, None, 1, 0, "b"),
     "Mem(base=None, index=None, scale=1, disp=0, symbol='b')", "[b]"),
    (Label(".L_f_ret_1"), (".L_f_ret_1",), "Label(name='.L_f_ret_1')",
     ".L_f_ret_1"),
    (LineRow(16, 3, 5), (16, 3, 5), "LineRow(address=16, line=3, col=5)",
     "LineRow(address=16, line=3, col=5)"),
    (Symbol("main", 1, 0, 42), ("main", 1, 0, 42),
     "Symbol(name='main', kind=1, address=0, size=42)",
     "Symbol(name='main', kind=1, address=0, size=42)"),
]
IDS = [type(v[0]).__name__ + str(i) for i, v in enumerate(VALUES)]


def _rebuild(value):
    """An equal value built again from the same fields."""
    if isinstance(value, (Reg, Xmm)):
        return type(value)(value.name)
    return copy.copy(value)


def test_registers_are_interned():
    assert Reg("rax") is Reg("rax")
    assert Xmm("xmm0") is Xmm("xmm0")
    assert Reg("rax") is not Reg("rbx")


def test_unknown_names_and_bad_scales_are_compile_errors():
    with pytest.raises(CompileError, match="GP register 'r99'"):
        Reg("r99")
    with pytest.raises(CompileError, match="XMM register 'xmm77'"):
        Xmm("xmm77")
    with pytest.raises(CompileError, match="XMM register 'rax'"):
        Xmm("rax")
    with pytest.raises(CompileError, match="bad scale"):
        Mem(base="rax", index="rcx", scale=3)
    with pytest.raises(CompileError, match="bad base register"):
        Mem(base="xmm0")


@pytest.mark.parametrize("value,fields,text_repr,text_str", VALUES, ids=IDS)
def test_equality_hash_repr_and_str(value, fields, text_repr, text_str):
    assert repr(value) == text_repr
    assert str(value) == text_str
    assert hash(value) == hash(fields)
    other = _rebuild(value)
    assert other == value and not (other != value)
    assert hash(other) == hash(value)
    assert value != fields              # a value never equals a bare tuple


def test_values_of_different_classes_differ():
    assert Reg("rax") != Label("rax")
    assert Imm(1) != Label("1")
    assert Token("kw", "int", 1, 1) != Token("id", "int", 1, 1)
    assert Type("int") != Type("int", 1)
    assert Mem(base="rax") != Mem(base="rax", disp=8)


@pytest.mark.parametrize("value", [v[0] for v in VALUES], ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert type(twin) is type(value)
        if isinstance(value, (Reg, Xmm)):
            assert twin is value


def test_values_have_no_instance_dict():
    for value, *_ in VALUES:
        assert not hasattr(value, "__dict__"), type(value).__name__
