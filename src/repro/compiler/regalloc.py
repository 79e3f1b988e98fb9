"""Register allocation decisions.

Two pieces:

1. **Scratch pools** used during expression lowering (caller-saved
   registers handed out left-to-right, spilled via push/pop when exhausted —
   the spill traffic is real data-movement instructions, as on hardware).
2. **Scalar promotion** (O2): loop indices and hot scalar accumulators are
   assigned callee-saved registers for the whole function, removing their
   per-iteration loads/stores.  This is the optimization whose effect on the
   instruction mix source-only tools (PBound) cannot see — the paper's
   central accuracy argument, measured in the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompileError
from ..frontend import ast_nodes as A

__all__ = ["ScratchPool", "promote_scalars", "INT_SCRATCH", "FP_SCRATCH",
           "INT_CALLEE_SAVED", "FP_PROMOTE"]

# Caller-saved scratch registers used by expression lowering.  rax/rdx are
# listed last: division needs them, so keeping them free avoids spills.
INT_SCRATCH = ["rcx", "rsi", "rdi", "r8", "r9", "r10", "r11", "rax", "rdx"]
FP_SCRATCH = [f"xmm{i}" for i in range(8)]

# Callee-saved registers available for scalar promotion.
INT_CALLEE_SAVED = ["r12", "r13", "r14", "r15", "rbx"]
# xmm8-11 are caller-saved on SysV; we only promote doubles in call-free
# functions, where that distinction cannot bite.
FP_PROMOTE = ["xmm8", "xmm9", "xmm10", "xmm11"]


class ScratchPool:
    """Hands out scratch registers; tracks what must be spilled."""

    def __init__(self, names: list[str]) -> None:
        self.names = list(names)
        self.free = list(names)
        self.in_use: list[str] = []

    def alloc(self) -> str | None:
        """Take a register, or None if the pool is exhausted (caller spills)."""
        if not self.free:
            return None
        r = self.free.pop(0)
        self.in_use.append(r)
        return r

    def alloc_specific(self, name: str) -> bool:
        """Try to take a specific register (idiv needs rax/rdx)."""
        if name in self.free:
            self.free.remove(name)
            self.in_use.append(name)
            return True
        return False

    def release(self, name: str) -> None:
        if name not in self.in_use:
            raise CompileError(f"release of non-allocated register {name!r}")
        self.in_use.remove(name)
        self.free.insert(0, name)

    def is_busy(self, name: str) -> bool:
        return name in self.in_use

    def reset(self) -> None:
        self.free = list(self.names)
        self.in_use = []


@dataclass
class PromotionPlan:
    """Which local scalars live in registers for the whole function."""

    int_regs: dict = field(default_factory=dict)   # var name -> reg name
    fp_regs: dict = field(default_factory=dict)
    saved_regs: list = field(default_factory=list)  # callee-saved to push/pop

    def reg_for(self, name: str) -> str | None:
        return self.int_regs.get(name) or self.fp_regs.get(name)


# What ``_collect_scalar_uses`` does at a node, by the node's exact type.
_USE, _DECLARE, _CALL, _UNARY, _LOOP = range(5)
_SCAN_ACTIONS = {A.Ident: _USE, A.DeclStmt: _DECLARE, A.Call: _CALL,
                 A.UnOp: _UNARY, A.ForStmt: _LOOP, A.WhileStmt: _LOOP,
                 A.DoWhileStmt: _LOOP}


def _collect_scalar_uses(fn: A.FunctionDef) -> tuple[dict, dict, bool, set]:
    """Weighted use counts of scalar locals: refs × 10^loop_depth.

    Returns (int_uses, fp_uses, has_calls, address_taken).
    """
    int_uses: dict[str, float] = {}
    fp_uses: dict[str, float] = {}
    scalar_types: dict[str, str] = {}
    address_taken: set[str] = set()
    has_calls = False

    for p in fn.params:
        if p.type.pointer == 0 and not p.type.is_class:
            scalar_types[p.name] = "fp" if p.type.is_float else "int"

    def scan(node: A.Node, depth: int) -> None:
        nonlocal has_calls
        action = _SCAN_ACTIONS.get(type(node))
        if action == _USE:
            kind = scalar_types.get(node.name)
            if kind is not None:
                uses = fp_uses if kind == "fp" else int_uses
                uses[node.name] = uses.get(node.name, 0.0) \
                    + 10.0 ** min(depth, 6)
            return
        if action == _DECLARE:
            for d in node.decls:
                if not d.array_dims and d.type.pointer == 0 \
                        and not d.type.is_class:
                    scalar_types[d.name] = "fp" if d.type.is_float else "int"
        elif action == _CALL:
            has_calls = True
        elif action == _UNARY:
            if node.op == "&" and type(node.operand) is A.Ident:
                address_taken.add(node.operand.name)
        elif action == _LOOP:
            depth += 1
        for c in node.children():
            scan(c, depth)

    scan(fn.body, 0)
    return int_uses, fp_uses, has_calls, address_taken


def promote_scalars(fn: A.FunctionDef, *, enable_fp: bool = True) -> PromotionPlan:
    """Pick the hottest scalar locals for whole-function registers (O2)."""
    int_uses, fp_uses, has_calls, address_taken = _collect_scalar_uses(fn)
    plan = PromotionPlan()

    ranked_ints = sorted(
        (v for v in int_uses.items() if v[0] not in address_taken),
        key=lambda kv: -kv[1],
    )
    for (name, weight), reg in zip(ranked_ints, INT_CALLEE_SAVED):
        if weight < 10.0:   # never referenced inside a loop: not worth it
            break
        plan.int_regs[name] = reg
        plan.saved_regs.append(reg)

    if enable_fp and not has_calls:
        ranked_fps = sorted(
            (v for v in fp_uses.items() if v[0] not in address_taken),
            key=lambda kv: -kv[1],
        )
        for (name, weight), reg in zip(ranked_fps, FP_PROMOTE):
            if weight < 10.0:
                break
            plan.fp_regs[name] = reg
    return plan
