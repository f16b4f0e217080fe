"""Content-addressed on-disk cache of built BVHs.

A sweep rebuilds the same BVH for every process that touches a scene:
``repro bench --jobs N`` workers, resumed sweeps, and repeated ablation
runs all pay the SAH build again even though its inputs have not
changed.  This cache keys a built tree by a digest of everything that
determines it - the mesh content, the builder configuration, and the
on-disk :data:`~repro.bvh.io.FORMAT_VERSION` - so a repeated build is a
single ``.npz`` load and a *stale* hit is structurally impossible: any
change to the inputs changes the key, and a key collision would require
a SHA-256 collision.

Crash consistency uses the same write-temp-then-rename dance as
:class:`~repro.resilience.checkpoint.SweepCheckpoint`: entries are
written to a unique temp file in the cache directory and atomically
swapped into place with ``os.replace``, so concurrent workers racing on
the same key each produce a complete file and the last rename wins
(both wrote identical bytes' worth of arrays).  An unreadable entry is
treated as a miss, deleted, and rebuilt.

The cache is opt-in: pass ``--artifact-cache DIR`` to ``repro bench`` /
``repro simulate`` (or set ``REPRO_ARTIFACT_CACHE=DIR``) to enable it.
Resumable sweeps embed :meth:`BVHArtifactCache.fingerprint` in their
checkpoint fingerprint, so a checkpoint written with the cache enabled
can never be silently resumed without it (or vice versa, or across a
format-version bump).
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

import numpy as np

from repro import telemetry
from repro.bvh.builder import build_bvh
from repro.bvh.io import FORMAT_VERSION, load_bvh, save_bvh
from repro.bvh.nodes import FlatBVH
from repro.geometry.triangle import TriangleMesh

#: Environment variable naming the cache directory (opt-in).
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"


def mesh_digest(mesh: TriangleMesh) -> str:
    """SHA-256 of the mesh's vertex content (the build input)."""
    h = hashlib.sha256()
    for arr in (mesh.v0, mesh.v1, mesh.v2):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class BVHArtifactCache:
    """Content-addressed store of built BVHs under one directory.

    Attributes:
        root: cache directory (created on first write).
        hits / misses / invalidated: per-process counters for the
            artifact's cache section.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    # ------------------------------------------------------------------
    def key(self, mesh: TriangleMesh, method: str = "sah",
            max_leaf_size: int = 4) -> str:
        """The content address of the BVH these inputs determine.

        Misses build with the default (vector) builder; the scalar
        oracle builder is contractually array-identical (enforced by the
        differential suite and the ``bvh_build`` benchmark gate), so the
        key carries no engine.
        """
        material = (
            f"bvh/{FORMAT_VERSION}/{method}/{max_leaf_size}/"
            f"{mesh_digest(mesh)}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[FlatBVH]:
        """The cached BVH for ``key``, or None on a miss.

        A present-but-unreadable entry (torn by a crash predating the
        atomic-rename scheme, or bit-rotted) counts as a miss and is
        deleted so the rebuilt tree replaces it.
        """
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            bvh = load_bvh(path)
        except Exception:
            self.invalidated += 1
            telemetry.inc_counter("artifact_cache.invalidated")
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return bvh

    def store(self, key: str, bvh: FlatBVH) -> str:
        """Persist ``bvh`` under ``key`` atomically; returns the path.

        The temp file carries the writer's PID so concurrent workers
        never collide on it; ``os.replace`` makes the final swap atomic
        within the cache filesystem.
        """
        os.makedirs(self.root, exist_ok=True)
        path = self.path(key)
        tmp_path = os.path.join(self.root, f".{key}.{os.getpid()}.tmp.npz")
        try:
            save_bvh(bvh, tmp_path)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        return path

    def get_or_build(self, mesh: TriangleMesh, method: str = "sah",
                     max_leaf_size: int = 4) -> FlatBVH:
        """The cached BVH for ``mesh``, building and storing on a miss."""
        key = self.key(mesh, method, max_leaf_size)
        bvh = self.load(key)
        if bvh is not None:
            self.hits += 1
            telemetry.inc_counter("artifact_cache.hits")
            return bvh
        self.misses += 1
        telemetry.inc_counter("artifact_cache.misses")
        bvh = build_bvh(mesh, method=method, max_leaf_size=max_leaf_size)
        self.store(key, bvh)
        return bvh

    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """The cache identity a resumable sweep pins its checkpoint to.

        The entry key space is fully determined by the BVH format
        version (plus per-entry content digests, which the fingerprinted
        preset already determines), so this is what a resume must agree
        on.  The root path is deliberately excluded: moving the cache
        directory does not change what any key resolves to.
        """
        return {"enabled": True, "format_version": FORMAT_VERSION}

    def describe(self) -> dict:
        """JSON-safe counter snapshot for artifact cache sections."""
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
        }


_ACTIVE: Optional[BVHArtifactCache] = None


def configure_artifact_cache(root: Optional[str]) -> Optional[BVHArtifactCache]:
    """Set (or clear, with None) the process-wide artifact cache.

    Also mirrors the directory into :data:`ARTIFACT_CACHE_ENV` so worker
    processes spawned by ``--jobs`` inherit the setting regardless of
    the multiprocessing start method.
    """
    global _ACTIVE
    if root:
        _ACTIVE = BVHArtifactCache(root)
        os.environ[ARTIFACT_CACHE_ENV] = root
    else:
        _ACTIVE = None
        os.environ.pop(ARTIFACT_CACHE_ENV, None)
    return _ACTIVE


def get_artifact_cache() -> Optional[BVHArtifactCache]:
    """The active cache: explicit configuration first, then the env var."""
    if _ACTIVE is not None:
        return _ACTIVE
    root = os.environ.get(ARTIFACT_CACHE_ENV)
    if root:
        return configure_artifact_cache(root)
    return None


def cached_build_bvh(mesh: TriangleMesh, method: str = "sah",
                     max_leaf_size: int = 4) -> FlatBVH:
    """``build_bvh`` through the active cache (plain build when none)."""
    cache = get_artifact_cache()
    if cache is None:
        return build_bvh(mesh, method=method, max_leaf_size=max_leaf_size)
    return cache.get_or_build(mesh, method=method, max_leaf_size=max_leaf_size)


__all__ = [
    "ARTIFACT_CACHE_ENV",
    "BVHArtifactCache",
    "cached_build_bvh",
    "configure_artifact_cache",
    "get_artifact_cache",
    "mesh_digest",
]
