"""Flat parameter vectors with named, shaped sub-blocks.

Every cell stores its weights in one flat float64 vector; a layout maps
block names (e.g. ``"W_hi"``) to (offset, shape) slices.  Keeping the
vector flat makes parameter rays ``s * theta``, finite differences and
optimizer updates trivial.  A (P, N_theta) matrix stacks P such vectors,
one per row, so that a sweep can step all of its points at once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockSpec:
    name: str
    offset: int
    shape: tuple[int, ...]
    size: int  # number of entries, stored so that lookups do no arithmetic


class ParameterLayout:
    """Ordered, disjoint, covering map from block names to vector slices."""

    def __init__(self, blocks):
        specs = []
        offset = 0
        for name, shape in blocks:
            shape = tuple(int(s) for s in shape)
            spec = BlockSpec(name, offset, shape, math.prod(shape))
            specs.append(spec)
            offset += spec.size
        self.blocks = tuple(specs)
        self.size = offset
        self._by_name = {b.name: b for b in self.blocks}
        self._stacked = {}
        if len(self._by_name) != len(self.blocks):
            raise ValueError("duplicate block names in layout")

    def spec(self, name: str) -> BlockSpec:
        return self._by_name[name]

    def stacked(self, names) -> BlockSpec:
        """One spec over alike blocks that lie back to back, in that order.

        K blocks of shape (m, ...) read as one (K*m, ...) block, their
        concatenation along the first axis.  The spec is cached per tuple
        of names, since cells look it up at every step.
        """
        names = tuple(names)
        spec = self._stacked.get(names)
        if spec is None:
            specs = [self._by_name[n] for n in names]
            for prev, b in zip(specs, specs[1:]):
                if b.shape != prev.shape:
                    raise ValueError(f"blocks {prev.name} and {b.name} differ in shape")
                if b.offset != prev.offset + prev.size:
                    raise ValueError(f"block {b.name} does not follow {prev.name}")
            first = specs[0]
            shape = (len(specs) * first.shape[0],) + first.shape[1:]
            spec = BlockSpec("+".join(names), first.offset, shape, len(specs) * first.size)
            self._stacked[names] = spec
        return spec


class ParameterVector:
    """A flat float64 vector, or a (P, N_theta) stack of them, plus its layout.

    Mutating methods return new vectors; the underlying array is owned by
    this object and callers must not write through views obtained from
    :meth:`get`, except into a vector they built to accumulate into, such
    as a gradient.  With stacked values every block carries the leading
    axis: :meth:`get` returns a (P, *shape) view.
    """

    def __init__(self, layout: ParameterLayout, values=None):
        self.layout = layout
        if values is None:
            values = np.zeros(layout.size)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            values = values.ravel()
        if values.shape[-1] != layout.size:
            raise ValueError(
                f"expected {layout.size} values for layout, got {values.shape[-1]}"
            )
        self.values = values

    @property
    def size(self) -> int:
        return self.layout.size

    def get(self, name: str) -> np.ndarray:
        return self._view(self.layout.spec(name))

    def get_stacked(self, names) -> np.ndarray:
        """View of consecutive alike blocks as one, see :meth:`ParameterLayout.stacked`."""
        return self._view(self.layout.stacked(names))

    def _view(self, b: BlockSpec) -> np.ndarray:
        lead = self.values.shape[:-1]
        return self.values[..., b.offset : b.offset + b.size].reshape(lead + b.shape)

    def with_block(self, name: str, block) -> "ParameterVector":
        b = self.layout.spec(name)
        lead = self.values.shape[:-1]
        block = np.asarray(block, dtype=float)
        if block.shape != lead + b.shape:
            raise ValueError(
                f"block {name} expects shape {lead + b.shape}, got {block.shape}")
        values = self.values.copy()
        values[..., b.offset : b.offset + b.size] = block.reshape(lead + (b.size,))
        return ParameterVector(self.layout, values)

    def theta_hash(self) -> str:
        """SHA-256 over layout names/shapes and the raw value bytes."""
        h = hashlib.sha256()
        for b in self.layout.blocks:
            h.update(b.name.encode())
            h.update(repr(b.shape).encode())
        h.update(self.values.tobytes())
        return h.hexdigest()

    def to_dict(self) -> dict:
        """Block name -> nested row-major lists (exact float round-trip)."""
        return {b.name: self.get(b.name).tolist() for b in self.layout.blocks}

    @classmethod
    def from_dict(cls, layout: ParameterLayout, blocks: dict) -> "ParameterVector":
        pv = cls(layout)
        for name, block in blocks.items():
            pv = pv.with_block(name, np.asarray(block, dtype=float))
        return pv
