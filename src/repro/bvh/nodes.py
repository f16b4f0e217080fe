"""Flat BVH node storage.

The layout mirrors the Aila-Laine node of Figure 8: a 64-byte record per
node holding the two children's bounding boxes, the child (or triangle)
indices, and - in the otherwise padded space - a precomputed ancestor
index used by the predictor's Go Up Level.  We store the tree in
structure-of-arrays form; addresses are synthesized as
``node_base + 64 * index`` so the cache/DRAM models see a realistic
access stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.triangle import TriangleMesh

#: Size of one BVH node record (Aila-Laine node: 4 x 16 bytes).
NODE_SIZE_BYTES = 64
#: Size of one triangle record (Woop-transform triangle: 3 x 16 bytes).
TRIANGLE_SIZE_BYTES = 48
#: Base address of the node buffer in the simulated address space.
NODE_BASE_ADDRESS = 0x1000_0000
#: Base address of the triangle buffer in the simulated address space.
TRIANGLE_BASE_ADDRESS = 0x4000_0000


@dataclass
class HotBVH:
    """Plain-Python-list mirror of the arrays used by traversal inner loops.

    Indexing numpy arrays element-wise from Python is several times slower
    than list indexing; the traversal kernels run millions of iterations,
    so :meth:`FlatBVH.hot` materializes this view once per BVH.
    """

    lo_x: List[float]
    lo_y: List[float]
    lo_z: List[float]
    hi_x: List[float]
    hi_y: List[float]
    hi_z: List[float]
    left: List[int]
    right: List[int]
    first_tri: List[int]
    tri_count: List[int]
    tri_v0: List[Tuple[float, float, float]]
    tri_v1: List[Tuple[float, float, float]]
    tri_v2: List[Tuple[float, float, float]]


class FlatBVH:
    """A binary BVH stored as flat arrays.

    Node ``i`` is a leaf iff ``left[i] < 0``; leaves reference the
    contiguous triangle range ``[first_tri[i], first_tri[i] + tri_count[i])``
    in the *reordered* triangle mesh (``tri_indices`` maps back to the
    original order).  Node 0 is always the root.
    """

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        first_tri: np.ndarray,
        tri_count: np.ndarray,
        parent: np.ndarray,
        mesh: TriangleMesh,
        tri_indices: np.ndarray,
    ) -> None:
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.first_tri = np.asarray(first_tri, dtype=np.int64)
        self.tri_count = np.asarray(tri_count, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.mesh = mesh
        self.tri_indices = np.asarray(tri_indices, dtype=np.int64)
        self._depth: np.ndarray | None = None
        self._ancestors: Dict[int, np.ndarray] = {}
        self._hot: HotBVH | None = None
        self._tri_to_leaf: np.ndarray | None = None
        self._levels: List[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes (interior + leaf)."""
        return self.lo.shape[0]

    @property
    def num_triangles(self) -> int:
        """Number of triangles referenced by the tree."""
        return len(self.mesh)

    def is_leaf(self, node: int) -> bool:
        """True if ``node`` is a leaf."""
        return self.left[node] < 0

    def root_aabb(self) -> AABB:
        """Bounding box of the whole tree (the scene AABB)."""
        return AABB(tuple(self.lo[0]), tuple(self.hi[0]))

    def depths(self) -> np.ndarray:
        """Per-node depth (root = 0), computed once and cached.

        Level-synchronous: each pass advances every node's ancestor
        pointer one hop at once, so the work is O(depth) numpy kernels
        instead of a Python loop over nodes.
        """
        if self._depth is None:
            depth = np.zeros(self.num_nodes, dtype=np.int64)
            ancestor = self.parent.copy()
            live = np.nonzero(ancestor >= 0)[0]
            while live.size:
                depth[live] += 1
                ancestor[live] = self.parent[ancestor[live]]
                live = live[ancestor[live] >= 0]
            self._depth = depth
        return self._depth

    def max_depth(self) -> int:
        """Depth of the deepest node; Table 1 reports this per scene."""
        return int(self.depths().max()) if self.num_nodes else 0

    def leaf_nodes(self) -> np.ndarray:
        """Indices of all leaf nodes."""
        return np.nonzero(self.left < 0)[0]

    def interior_nodes(self) -> np.ndarray:
        """Indices of all interior nodes."""
        return np.nonzero(self.left >= 0)[0]

    def levels(self) -> List[np.ndarray]:
        """Node indices bucketed by depth (``levels()[d]`` sorted).

        The depth-ordered schedule the vectorized refit folds over:
        a bottom-up sweep touches ``levels()[-1]`` first and reaches the
        root last, one segmented reduction per depth.  Computed once and
        cached like the other derived views.
        """
        if self._levels is None:
            depth = self.depths()
            by_depth = np.argsort(depth, kind="stable")
            counts = np.bincount(depth)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            self._levels = [
                by_depth[bounds[d]:bounds[d + 1]]
                for d in range(counts.size)
            ]
        return self._levels

    def leaf_of_triangle(self) -> np.ndarray:
        """Map from reordered triangle index to its containing leaf node."""
        if self._tri_to_leaf is None:
            mapping = np.full(self.num_triangles, -1, dtype=np.int64)
            leaves = self.leaf_nodes()
            starts = self.first_tri[leaves]
            counts = self.tri_count[leaves]
            seg = np.repeat(np.arange(leaves.size, dtype=np.int64), counts)
            offsets = np.zeros(leaves.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            within = np.arange(int(counts.sum()), dtype=np.int64) - offsets[seg]
            mapping[starts[seg] + within] = leaves[seg]
            self._tri_to_leaf = mapping
        return self._tri_to_leaf

    # ------------------------------------------------------------------
    # Go Up Level support (Section 4.3)
    # ------------------------------------------------------------------
    def ancestor(self, node: int, level: int) -> int:
        """The ``level``-th ancestor of ``node`` (clamped at the root).

        Level 0 returns the node itself, level 1 its parent, and so on;
        this matches the paper's Go Up Level definition (Figure 7).
        """
        current = node
        for _ in range(level):
            up = self.parent[current]
            if up < 0:
                break
            current = int(up)
        return current

    def ancestors(self, level: int) -> np.ndarray:
        """Precomputed ``level``-th ancestor of every node.

        In hardware this value is stored in the node's padded space at
        build time (Figure 8); here we cache the array per level so a Go
        Up Level sweep does not pay the walk repeatedly.
        """
        if level not in self._ancestors:
            if level == 0:
                table = np.arange(self.num_nodes, dtype=np.int64)
            else:
                below = self.ancestors(level - 1)
                table = np.where(self.parent[below] >= 0, self.parent[below], below)
                # Root's parent is -1; keep the clamped node index instead.
                table = table.astype(np.int64)
            self._ancestors[level] = table
        return self._ancestors[level]

    def subtree_depth_from(self, node: int) -> int:
        """Height of the subtree rooted at ``node`` (leaf = 0)."""
        stack = [(node, 0)]
        best = 0
        while stack:
            current, d = stack.pop()
            if self.is_leaf(current):
                best = max(best, d)
            else:
                stack.append((int(self.left[current]), d + 1))
                stack.append((int(self.right[current]), d + 1))
        return best

    # ------------------------------------------------------------------
    # Simulated address space
    # ------------------------------------------------------------------
    def node_address(self, node: int) -> int:
        """Byte address of node ``node`` in the simulated address space."""
        return NODE_BASE_ADDRESS + NODE_SIZE_BYTES * node

    def triangle_address(self, tri: int) -> int:
        """Byte address of (reordered) triangle ``tri``."""
        return TRIANGLE_BASE_ADDRESS + TRIANGLE_SIZE_BYTES * tri

    def memory_footprint_bytes(self) -> int:
        """Bytes occupied by nodes plus triangle records."""
        return (
            NODE_SIZE_BYTES * self.num_nodes
            + TRIANGLE_SIZE_BYTES * self.num_triangles
        )

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def hot(self) -> HotBVH:
        """Materialize (once) the plain-list view used by traversal loops."""
        if self._hot is None:
            tri_v0, tri_v1, tri_v2 = self._shared_corner_tuples()
            self._hot = HotBVH(
                lo_x=self.lo[:, 0].tolist(),
                lo_y=self.lo[:, 1].tolist(),
                lo_z=self.lo[:, 2].tolist(),
                hi_x=self.hi[:, 0].tolist(),
                hi_y=self.hi[:, 1].tolist(),
                hi_z=self.hi[:, 2].tolist(),
                left=self.left.tolist(),
                right=self.right.tolist(),
                first_tri=self.first_tri.tolist(),
                tri_count=self.tri_count.tolist(),
                tri_v0=tri_v0,
                tri_v1=tri_v1,
                tri_v2=tri_v2,
            )
        return self._hot

    def _shared_corner_tuples(self) -> Tuple[list, list, list]:
        """Per-triangle corner tuples, one shared tuple per distinct vertex.

        Meshes reference each vertex from several triangles, so sharing
        the Python tuple (keyed on the exact float bits, which keeps
        ``-0.0`` apart from ``0.0``) cuts the hot view's memory several
        times over without changing a single coordinate.
        """
        n = len(self.mesh.v0)
        corners = np.concatenate([self.mesh.v0, self.mesh.v1, self.mesh.v2])
        bits = np.ascontiguousarray(corners, dtype=np.float64).view(np.int64)
        unique_bits, inverse = np.unique(bits, axis=0, return_inverse=True)
        vertices = [tuple(row) for row in unique_bits.view(np.float64).tolist()]
        refs = [vertices[i] for i in inverse.reshape(-1).tolist()]
        return refs[:n], refs[n : 2 * n], refs[2 * n :]
