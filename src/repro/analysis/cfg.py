"""Control-flow graph construction over an accepted instruction set.

Once the correction algorithm has settled on a set of instruction
starts, the CFG organizes them into basic blocks for function-boundary
identification and for downstream consumers of the library (the same
structure a binary-rewriting client would use).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..isa.opcodes import FlowKind
from ..superset.superset import Superset


@dataclass
class BasicBlock:
    """A maximal straight-line run of accepted instructions."""

    start: int
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.end

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]


@dataclass
class ControlFlowGraph:
    """Basic blocks plus successor and predecessor sets keyed by block start.

    Every block start has an entry in both maps (possibly empty).  Edges
    are sets, so a duplicate edge (a ``jcc`` whose target is its own
    fall-through) is stored once.
    """

    blocks: dict[int, BasicBlock]
    succs: dict[int, set[int]]
    preds: dict[int, set[int]]

    def successors(self, start: int) -> list[int]:
        return sorted(self.succs[start])

    def predecessors(self, start: int) -> list[int]:
        return sorted(self.preds[start])

    def reachable_from(self, roots: Iterable[int]) -> set[int]:
        """Block starts reachable from any root (intraprocedural edges).

        ``roots`` may be any iterable of offsets (list, set, generator);
        offsets that are not block starts are ignored.
        """
        seen: set[int] = set()
        stack = [r for r in roots if r in self.blocks]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.succs[node])
        return seen


def build_cfg(superset: Superset, accepted: set[int]) -> ControlFlowGraph:
    """Partition accepted instruction starts into basic blocks.

    Leaders are: branch targets, fall-through points after
    control-transfer instructions, and starts with no accepted
    fall-through predecessor.  Call edges are *not* CFG edges (calls
    fall through); direct call targets become block leaders but the
    interprocedural edge lives in the function model instead.
    """
    instructions = {o: superset.at(o) for o in accepted
                    if superset.at(o) is not None}

    leaders: set[int] = set()
    has_fallthrough_pred: set[int] = set()
    for offset, ins in instructions.items():
        if ins.is_direct_branch:
            target = ins.branch_target
            if target in instructions:
                leaders.add(target)
        if ins.flow in (FlowKind.JUMP, FlowKind.CJUMP, FlowKind.IJUMP,
                        FlowKind.RET, FlowKind.HALT):
            if ins.end in instructions:
                leaders.add(ins.end)
        elif ins.falls_through and ins.end in instructions:
            has_fallthrough_pred.add(ins.end)
    for offset in instructions:
        if offset not in has_fallthrough_pred:
            leaders.add(offset)

    blocks: dict[int, BasicBlock] = {}
    for leader in sorted(leaders):
        block = BasicBlock(start=leader)
        current = leader
        while current in instructions:
            ins = instructions[current]
            block.instructions.append(ins)
            if (not ins.falls_through or ins.end in leaders
                    or ins.end not in instructions):
                break
            current = ins.end
        if block.instructions:
            blocks[leader] = block

    succs: dict[int, set[int]] = {start: set() for start in blocks}
    preds: dict[int, set[int]] = {start: set() for start in blocks}
    for start, block in blocks.items():
        terminator = block.terminator
        targets = []
        if terminator.falls_through and terminator.end in blocks:
            targets.append(terminator.end)
        if terminator.flow in (FlowKind.JUMP, FlowKind.CJUMP):
            targets.append(terminator.branch_target)
        for target in targets:
            if target in blocks:
                succs[start].add(target)
                preds[target].add(start)
    return ControlFlowGraph(blocks=blocks, succs=succs, preds=preds)
