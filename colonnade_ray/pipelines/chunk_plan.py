"""One chunk planner for every pushdown and lifecycle read.

- ``plan_chunks`` is the only code that reads the lineage manifests
  for a query.  It parses each chunk's ``stats_json`` once, compiles
  the predicate once (stages/decode.ChunkClassifier), folds whole-chunk
  delete masks in, and labels every chunk:
  - ``none``: the zone maps or Bloom filters prove no row matches, or
    the chunk is deleted whole.  Only counted.
  - ``proven``: every row matches (every chunk, when there is no
    predicate), so an operation may answer from the chunk's stats.
  - ``maybe``: only a decode can tell.
- ``scan_chunks`` is the one decode loop of every read: it reads just
  the chunks an operation could not answer from metadata (or, for an
  unpredicated corpus read, every chunk in scope, with no per-chunk
  planning), decodes them, masks deleted rows, applies the predicate
  exactly and folds each task's tables into one partial.  A scan
  that fits one decode task's token budget runs in the driver, with
  no Ray job; a larger one is a Ray Data job
  (encode_pipeline.map_encoded).  The pushdowns merge the partials on
  the driver (pipelines/pushdown.py); ``decode_corpus`` /
  ``decode_snapshot`` return them as the decoded Dataset, and
  ``decode_digest_corpus`` sums one digest row per task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
import pyarrow as pa

from .encode_pipeline import (
    _read_encoded,
    _register_dict_dir,
    _scope,
    active_groups,
    lineage_table,
    map_encoded,
)


class Chunk(NamedTuple):
    """One planned chunk: where it lives, its parsed stats, and its
    partial delete mask (True = deleted; None when unmasked)."""

    gid: str
    fragment: str
    chunk_id: str
    n_rows: int
    stats: dict
    dmask: Optional[np.ndarray]

    @property
    def key(self) -> tuple:
        return (self.fragment, self.chunk_id)

    @property
    def n_live(self) -> int:
        return self.n_rows - (int(self.dmask.sum())
                              if self.dmask is not None else 0)


@dataclass
class ChunkPlan:
    """Labelled chunks of one query.  ``groups`` is the scoped group
    list, ``deletes_dir`` the mask root the scan must honour."""

    preds: list
    groups: list
    deletes_dir: Optional[str]
    proven: list = field(default_factory=list)
    maybe: list = field(default_factory=list)
    n_none: int = 0


def plan_chunks(out_dir: str, predicate,
                snapshot: Optional[str] = None) -> ChunkPlan:
    """Label every chunk in scope ``none`` / ``proven`` / ``maybe``
    for ``predicate`` (None: every live chunk is proven).  Scope is the
    live corpus, or the named snapshot's pinned groups and masks."""
    groups, deletes_dir = _scope(out_dir, snapshot)
    return _plan(out_dir, predicate, groups, deletes_dir)


def _plan(out_dir: str, predicate, groups, deletes_dir) -> ChunkPlan:
    """plan_chunks over an explicit group list (None: the active set)
    and mask root (None: masks are not consulted)."""
    from ..stages.decode import ChunkClassifier, normalize_predicates, parse_stats
    from .deletes import load_delete_masks

    preds = normalize_predicates(predicate)
    lin_root = os.path.join(out_dir, "_lineage")
    gids = active_groups(out_dir) if groups is None else [
        g for g in groups
        if os.path.exists(os.path.join(lin_root, f"group-{g}.parquet"))
    ]
    if not gids and not active_groups(out_dir):
        raise FileNotFoundError(f"no committed encode groups under {out_dir}")
    masks = load_delete_masks(deletes_dir) if deletes_dir else {}
    cls = ChunkClassifier(preds)
    plan = ChunkPlan(preds, gids, deletes_dir)
    for gid in gids:
        lt = lineage_table(out_dir, gid)
        for frag, cid, n, sj in zip(lt["fragment"].to_pylist(),
                                    lt["chunk_id"].to_pylist(),
                                    lt["n_rows"].to_pylist(),
                                    lt["stats_json"].to_pylist()):
            stats = parse_stats(sj)
            dmask = masks.get((frag, cid))
            if isinstance(dmask, str) or not cls.may(stats):
                plan.n_none += 1
                continue
            c = Chunk(gid, frag, cid, int(n), stats, dmask)
            (plan.proven if cls.all(stats) else plan.maybe).append(c)
    return plan


def single_group(stats: dict, group_col: str):
    """The one ``group_col`` value every row of a chunk holds, or None
    when the stats can't prove it: the zone band must be lo == hi and
    the column provably null-free (a present ``__nulls__`` table)."""
    band = stats.get(group_col)
    nt = stats.get("__nulls__")
    if band is None or band[0] != band[1] or nt is None or nt.get(group_col):
        return None
    return band[0]


def read_chunks(out_dir: str, plan: ChunkPlan, chunks, columns):
    """``_read_encoded`` over just ``chunks``: their groups, in plan
    order, and their parquet row groups."""
    hit = {c.gid for c in chunks}
    return _read_encoded(out_dir, columns,
                         groups=[g for g in plan.groups if g in hit],
                         chunk_ids={c.chunk_id for c in chunks})


def scan_chunks(out_dir: str, plan: ChunkPlan, chunks, columns,
                fold: Callable, verify_checksum: bool = False):
    """Decode ``chunks`` of ``plan`` and fold each task's live,
    predicate-filtered tables (an iterator; only chunks with rows left)
    into one partial ``pa.Table``.  Reads only those chunks' groups and
    row groups, projected to ``columns`` plus the predicate's columns.
    ``chunks=None`` reads every chunk of ``plan.groups`` unfiltered;
    ``columns=None`` decodes whole chunks (and verifies the whole-chunk
    checksum when ``verify_checksum``).  Returns the partials: a list
    when the read fits one decode task's token budget and ran in the
    driver, else the lazy Dataset of a Ray Data job."""
    from ..stages.decode import decode_live, predicate_columns
    from .deletes import load_delete_masks

    cols = None if columns is None else list(dict.fromkeys(
        [*columns, *predicate_columns(plan.preds)]))
    if chunks is None:
        keys = None
        read = _read_encoded(out_dir, cols, groups=plan.groups)
    else:
        keys = {c.key for c in chunks}
        read = read_chunks(out_dir, plan, chunks, cols)
    preds, deletes_dir = plan.preds, plan.deletes_dir

    def part(batch: pa.Table) -> pa.Table:
        _register_dict_dir(out_dir)
        masks = load_delete_masks(deletes_dir) if deletes_dir else {}
        rows = range(len(batch)) if keys is None else [
            r for r, k in enumerate(zip(batch["fragment"].to_pylist(),
                                        batch["chunk_id"].to_pylist()))
            if k in keys]
        return fold(decode_live(batch, rows, cols, preds, masks,
                                verify_checksum))

    return map_encoded(read, part)


def partials(parts):
    """The partial tables of a ``scan_chunks`` result, one block at a
    time as they stream in."""
    if isinstance(parts, list):
        return iter(parts)
    return parts.iter_batches(batch_format="pyarrow", batch_size=None)
