"""The four workloads.  Each builds its inputs from the seed, runs set-up
(the program's work before the loop, timed), computes its oracle with
pyarrow or plain Python (untimed), and yields requests for the closed
loop.  A request makes calls through ``Client.call`` and returns whether
every answer matched the oracle.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

COLS = ["doc_id", "tokens", "n_tok", "source"]


def dir_bytes(path: str, subdirs=("data", "_lineage", "_dicts")) -> int:
    """Stored bytes of an encoded corpus: data, lineage and dictionaries."""
    total = 0
    for sub in subdirs:
        for base, _, files in os.walk(os.path.join(path, sub)):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def write_shards(table: pa.Table, out_dir: str, n_files: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir


def _same_rows(got: pa.Table, want: pa.Table, cols) -> bool:
    """Equal as row sets (doc_id is unique in every corpus here)."""
    if got.num_rows != want.num_rows:
        return False
    if not got.num_rows:
        return True
    a = got.select(cols).sort_by("doc_id")
    b = want.select(cols).sort_by("doc_id")
    return a.cast(b.schema).equals(b)


def _dataset_table(ds) -> pa.Table:
    import ray

    refs = ds.to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


class Workload:
    name = ""
    setup_repeats = 3
    # Requests per cycle of a fixed mix; a run stops only between cycles,
    # so every run weighs the mix's request kinds alike.
    cycle = 1
    warmup = 0      # checked but untimed requests before the loop

    def __init__(self, base_dir: str, seed: int, client):
        self.base = base_dir
        self.seed = seed
        self.client = client
        self.rng = np.random.default_rng(seed)
        self.src = None             # parquet input of the encoded corpus
        self.corpus = None          # encoded corpus the loop reads
        self.predicates: list = []  # predicates whose classification is replayed
        self.sizes: dict = {}

    def setup(self, d: str) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: oracle answers and anything else the checks need."""

    def requests(self):
        raise NotImplementedError

    def bytes_per_token(self) -> float:
        return dir_bytes(self.corpus) / self.sizes["tokens"]

    def layer_metrics(self) -> dict:
        """Per-layer figures only this workload's requests produce."""
        return {}

    def _encoded_sizes(self, summary: dict) -> None:
        self.sizes.update(rows=int(summary["rows"]), tokens=int(summary["tokens"]),
                          chunks=int(summary["chunks"]))


class Ingest(Workload):
    """Synthetic F1 corpus -> encode_corpus (defaults) -> full fused
    decode digest, checked against the source digest."""

    name = "ingest"
    # Fresh worker heaps pay first-touch page faults: the first two round
    # trips of a run measured 10-40% slower than the rest.
    warmup = 2
    n_rows = 12_000
    rows_per_file = 500

    def setup(self, d):
        from colonnade_ray.corpus import synth_corpus

        self.src = synth_corpus(os.path.join(d, "src"), self.n_rows, seed=self.seed,
                                rows_per_file=self.rows_per_file)

    def prepare(self):
        from colonnade_ray.pipelines import decode_corpus, encode_corpus
        from colonnade_ray.stages.verify import batch_digest

        table = pq.read_table(self.src)
        d = batch_digest(table, COLS)
        self.digest = ((int(d["h_sum"][0]) & 0xFFFFFFFFFFFFFFFF),
                       int(d["h_xor"][0]) & 0xFFFFFFFFFFFFFFFF, int(d["n"][0]))
        # One independent bit-for-bit check of the round trip; the timed
        # requests then compare digests.
        out = os.path.join(self.base, "warm")
        summary = encode_corpus(self.src, out)
        back = _dataset_table(decode_corpus(out))
        if not _same_rows(back, table, COLS):
            raise RuntimeError("ingest: decoded corpus differs from its source")
        self._encoded_sizes(summary)
        self.corpus = out
        self._n = 0

    def requests(self):
        from colonnade_ray.pipelines import decode_digest_corpus, encode_corpus

        def round_trip():
            out = os.path.join(self.base, f"enc-{self._n}")
            self._n += 1
            s = self.client.call("encode_corpus", encode_corpus, self.src, out)
            got = self.client.call("decode_digest_corpus", decode_digest_corpus,
                                   out, COLS)
            if self.corpus != out:
                shutil.rmtree(self.corpus, ignore_errors=True)
            self.corpus = out
            got = (got[0] & 0xFFFFFFFFFFFFFFFF, got[1] & 0xFFFFFFFFFFFFFFFF, got[2])
            return got == self.digest and s["tokens"] == self.sizes["tokens"]

        while True:
            yield "round_trip", round_trip


class Query(Workload):
    """Small clustered chunks with sketches; a fixed-proportion seeded mix
    of pushdown reads, each checked against a pyarrow oracle."""

    name = "query"
    n_rows = 4_000
    chunk_rows = 16          # <= quantile_k, so approx_quantiles is exact
    quantile_k = 256
    cycles = 4
    cycle = 6

    def setup(self, d):
        from colonnade_ray.corpus import synth_rows
        from colonnade_ray.pipelines import encode_corpus

        self.table = synth_rows(self.n_rows, self.seed, start_id=0)
        self.src = write_shards(self.table, os.path.join(d, "src"), 4)
        self.corpus = os.path.join(d, "enc")
        self.summary = encode_corpus(
            self.src, self.corpus, batch_size=self.chunk_rows, cluster_by="n_tok",
            bloom_cols=["doc_id"], hll_cols=["doc_id", "n_tok"],
            quantile_cols=["n_tok"], quantile_k=self.quantile_k)

    def prepare(self):
        from colonnade_ray.stages.bloomzone import HLL_P

        self._encoded_sizes(self.summary)
        self.hll_tol = 3 * 1.04 / np.sqrt(1 << HLL_P)
        t = self.table
        n_tok = np.sort(t["n_tok"].to_numpy())
        ids = t["doc_id"].to_pylist()
        sources = sorted(set(t["source"].to_pylist()))
        rng = self.rng
        self.pool = []
        for _ in range(self.cycles):
            a = int(rng.integers(0, len(n_tok) - len(n_tok) // 10))
            w = int(rng.integers(len(n_tok) // 50, len(n_tok) // 10))
            lo, hi = int(n_tok[a]), int(n_tok[a + w]) + 1
            rng_pred = [("n_tok", ">=", lo), ("n_tok", "<", hi)]
            src = sources[int(rng.integers(0, len(sources)))]
            pick = [ids[int(i)] for i in rng.choice(len(ids), 20, replace=False)]
            agg = ["sum", "min", "max"][int(rng.integers(0, 3))]
            ops = [self._count(rng_pred), self._aggregate(agg, rng_pred),
                   self._topk(src), self._quantiles(rng_pred),
                   self._distinct(rng_pred), self._decode(pick)]
            rng.shuffle(ops)
            self.pool.extend(ops)
            self.predicates += [rng_pred, [("source", "==", src)],
                                [("doc_id", "in", pick)]]

    def _where(self, preds):
        m = None
        for col, op, v in preds:
            c = self.table[col]
            x = {">=": pc.greater_equal, "<": pc.less, "==": pc.equal}.get(op)
            x = pc.is_in(c, pa.array(v)) if op == "in" else x(c, v)
            m = x if m is None else pc.and_(m, x)
        return self.table.filter(m)

    def _count(self, preds):
        from colonnade_ray.pipelines import count_where

        want = self._where(preds).num_rows
        return "count_where", lambda: self.client.call(
            "count_where", count_where, self.corpus, preds) == want

    def _aggregate(self, agg, preds):
        from colonnade_ray.pipelines import aggregate_where

        vals = self._where(preds)["n_tok"]
        want = {"sum": pc.sum, "min": pc.min, "max": pc.max}[agg](vals).as_py()
        return "aggregate_where", lambda: self.client.call(
            "aggregate_where", aggregate_where, self.corpus, agg, "n_tok",
            predicate=preds) == want

    def _topk(self, src):
        from colonnade_ray.pipelines import topk_where

        sub = self._where([("source", "==", src)])
        want = sorted(sub["n_tok"].to_pylist(), reverse=True)[:10]
        by_id = dict(zip(self.table["doc_id"].to_pylist(),
                         self.table["n_tok"].to_pylist()))

        def run():
            out = self.client.call("topk_where", topk_where, self.corpus, "n_tok",
                                   k=10, predicate=("source", "==", src),
                                   tie_cols=["doc_id"], **self._stats_kw())
            out = self._note_stats("topk_where", out)
            got = out["n_tok"].to_pylist()
            return got == want and all(
                by_id.get(i) == v for i, v in zip(out["doc_id"].to_pylist(), got))

        return "topk_where", run

    def _quantiles(self, preds):
        from colonnade_ray.pipelines import approx_quantiles

        qs = (0.1, 0.5, 0.9)
        v = np.sort(self._where(preds)["n_tok"].to_numpy())
        # quantile_disc: smallest value whose cumulative count reaches q*n
        want = [int(v[max(0, int(np.ceil(q * v.size)) - 1)]) for q in qs]

        def run():
            got = self.client.call("approx_quantiles", approx_quantiles, self.corpus,
                                   "n_tok", qs=qs, predicate=preds,
                                   **self._stats_kw())
            got = self._note_stats("approx_quantiles", got)
            return [int(x) for x in got] == want

        return "approx_quantiles", run

    def _distinct(self, preds):
        from colonnade_ray.pipelines import approx_distinct

        want = len(set(self._where(preds)["doc_id"].to_pylist()))

        def run():
            got = self.client.call("approx_distinct", approx_distinct, self.corpus,
                                   "doc_id", predicate=preds, **self._stats_kw())
            got = self._note_stats("approx_distinct", got)
            return abs(got - want) <= self.hll_tol * want

        return "approx_distinct", run

    def _decode(self, ids):
        from colonnade_ray.pipelines import decode_corpus

        cols = ["doc_id", "n_tok"]
        want = self._where([("doc_id", "in", ids)])

        def run():
            def decode():
                ds = decode_corpus(self.corpus, columns=cols,
                                   predicate=("doc_id", "in", ids)).materialize()
                self.last_decode_ds = ds
                return _dataset_table(ds)

            got = self.client.call("decode_corpus", decode)
            return _same_rows(got, want, cols)

        return "decode_corpus", run

    # In a traced half, ops that offer return_stats report their pruning.
    def _stats_kw(self):
        return {"return_stats": True} if self.client.phase == "traced" else {}

    def _note_stats(self, op, out):
        if self.client.phase != "traced":
            return out
        res, stats = out
        acc = self.client.op_stats.setdefault(op, {})
        for k, v in stats.items():
            if isinstance(v, int):
                acc[k] = acc.get(k, 0) + v
        return res

    def requests(self):
        while True:
            yield from self.pool


class Lifecycle(Workload):
    """A fixed seeded script of writes on a small corpus, each followed by
    a read that checks it against an oracle table with the same
    mutations; maintenance (vacuum + compact) closes every cycle, then
    the corpus is restored so every cycle starts from the same state."""

    name = "lifecycle"
    n_rows = 3_000
    chunk_rows = 250
    cycle = 5
    # The first cycle of a run measured 15-35% slower than the next ones.
    warmup = 5

    def setup(self, d):
        from colonnade_ray.corpus import synth_rows
        from colonnade_ray.pipelines import encode_corpus

        self.table0 = synth_rows(self.n_rows, self.seed, start_id=0)
        self.src = write_shards(self.table0, os.path.join(d, "src"), 3)
        self.pristine = os.path.join(d, "enc")
        self.summary = encode_corpus(self.src, self.pristine, batch_size=self.chunk_rows)

    def prepare(self):
        self._encoded_sizes(self.summary)
        self.corpus = os.path.join(self.base, "work")
        rng = self.rng
        t = self.table0
        n_tok = np.sort(t["n_tok"].to_numpy())
        a = int(rng.integers(len(n_tok) // 10, len(n_tok) // 2))
        self.band = (int(n_tok[a]), int(n_tok[a + len(n_tok) // 50]) + 1)
        self.scatter_src = f"src{int(rng.integers(3, 8))}"
        self.cap_at = int(n_tok[int(len(n_tok) * 0.97)])
        ids = t["doc_id"].to_pylist()
        upd = [ids[int(i)] for i in rng.choice(len(ids), 40, replace=False)]
        new = [f"doc-new-{self.seed}-{i:05d}" for i in range(40)]
        keys = upd + new
        lens = rng.integers(5, 60, len(keys))
        toks = [rng.integers(0, 50_000, n).astype(np.int32).tolist() for n in lens]
        self.batch = pa.table({
            "doc_id": pa.array(keys),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array(lens.astype(np.int32)),
            "source": pa.array(["merged"] * len(keys)),
        })
        self.batch_path = os.path.join(self.base, "merge", "batch-0.parquet")
        os.makedirs(os.path.dirname(self.batch_path), exist_ok=True)
        pq.write_table(self.batch, self.batch_path)
        self.merge_ids = keys + ids[:20]
        self.predicates = [[("n_tok", ">=", self.band[0] - 50)],
                           [("source", "in", [self.scatter_src, "src0"])],
                           [("source", "==", "capped")],
                           [("doc_id", "in", self.merge_ids)]]
        self.post_maint: list = []    # (live bytes, rewritten bytes, live tokens)
        self.delete_mask_ms: list = []
        self.committed_deletes: list = []

    def _reset(self):
        shutil.rmtree(self.corpus, ignore_errors=True)
        shutil.copytree(self.pristine, self.corpus)
        self.oracle = self.table0

    def _keep(self, mask):
        self.oracle = self.oracle.filter(pc.invert(pc.fill_null(mask, False)))

    def _count_ok(self, preds, col, op, v):
        from colonnade_ray.pipelines import count_where

        m = {">=": pc.greater_equal, "==": pc.equal}.get(op)
        m = pc.is_in(self.oracle[col], pa.array(v)) if op == "in" \
            else m(self.oracle[col], v)
        want = int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
        return self.client.call("count_where", count_where, self.corpus, preds) == want

    def _note_masks(self):
        from colonnade_ray.pipelines import committed_deletes, load_delete_masks

        self.committed_deletes.append(len(committed_deletes(self.corpus)))
        t0 = time.perf_counter()
        load_delete_masks(self.corpus)
        self.delete_mask_ms.append((time.perf_counter() - t0) * 1e3)

    def _delete_band(self):
        from colonnade_ray.pipelines import delete_where

        lo, hi = self.band
        pred = [("n_tok", ">=", lo), ("n_tok", "<", hi)]
        self.client.call("delete_where", delete_where, self.corpus, pred)
        n = self.oracle["n_tok"]
        self._keep(pc.and_(pc.greater_equal(n, lo), pc.less(n, hi)))
        ok = self._count_ok([("n_tok", ">=", lo - 50)], "n_tok", ">=", lo - 50)
        self._note_masks()
        return ok

    def _delete_scattered(self):
        from colonnade_ray.pipelines import delete_where

        s = self.scatter_src
        self.client.call("delete_where", delete_where, self.corpus,
                         ("source", "==", s))
        self._keep(pc.equal(self.oracle["source"], s))
        ok = self._count_ok(("source", "in", [s, "src0"]), "source", "in", [s, "src0"])
        self._note_masks()
        return ok

    def _replace(self):
        from colonnade_ray.pipelines import replace_where

        self.client.call("replace_where", replace_where, self.corpus,
                         ("n_tok", ">=", self.cap_at), {"source": "capped"})
        o = self.oracle
        hit = pc.greater_equal(o["n_tok"], self.cap_at)
        src = pc.if_else(hit, pa.scalar("capped"), o["source"])
        self.oracle = o.set_column(o.schema.get_field_index("source"), "source", src)
        return self._count_ok(("source", "==", "capped"), "source", "==", "capped")

    def _decode_ok(self, cols, predicate=None):
        from colonnade_ray.pipelines import decode_corpus

        def decode():
            return _dataset_table(decode_corpus(self.corpus, columns=cols,
                                                predicate=predicate))

        got = self.client.call("decode_corpus", decode)
        want = self.oracle
        if predicate is not None:
            want = want.filter(pc.is_in(want["doc_id"], pa.array(predicate[2])))
        return _same_rows(got, want, cols)

    def _merge(self):
        from colonnade_ray.pipelines import merge_rows

        self.client.call("merge_rows", merge_rows, self.corpus, self.batch_path,
                         key="doc_id")
        keys = self.batch["doc_id"]
        rest = self.oracle.filter(pc.invert(pc.is_in(self.oracle["doc_id"], keys)))
        self.oracle = pa.concat_tables([rest, self.batch.cast(rest.schema)])
        return self._decode_ok(["doc_id", "n_tok", "source"],
                               ("doc_id", "in", self.merge_ids))

    def _maintain(self):
        from colonnade_ray.pipelines import compact_corpus, vacuum_deletes

        before = self._files()
        self.client.call("vacuum_deletes", vacuum_deletes, self.corpus)
        self.client.call("compact_corpus", compact_corpus, self.corpus)
        after = self._files()
        rewritten = sum(size for f, size in after.items() if f not in before)
        tokens = int(pc.sum(self.oracle["n_tok"]).as_py())
        self.post_maint.append((dir_bytes(self.corpus), rewritten, tokens))
        return self._decode_ok(["doc_id", "n_tok", "source"])

    def _files(self) -> dict:
        out = {}
        for base, _, files in os.walk(os.path.join(self.corpus, "data")):
            for f in files:
                p = os.path.join(base, f)
                out[p] = os.path.getsize(p)
        return out

    def bytes_per_token(self):
        vals = sorted(b / t for b, _, t in self.post_maint)
        return vals[len(vals) // 2]

    def layer_metrics(self):
        from .measure import median

        return {
            "pipelines.load_delete_masks.ms": median(self.delete_mask_ms),
            "pipelines.committed_deletes.count": max(self.committed_deletes or [0]),
            "lifecycle.bytes_rewritten_per_live_byte": median(
                [r / b for b, r, _ in self.post_maint if b]),
        }

    def requests(self):
        # update_where refuses a corpus with pending delete masks, and
        # merge_rows masks the rows it supersedes: replace goes first.
        script = [("replace_where", self._replace), ("merge_rows", self._merge),
                  ("delete_band", self._delete_band),
                  ("delete_scattered", self._delete_scattered),
                  ("maintain", self._maintain)]
        while True:
            self._reset()
            yield from script


class Dedup(Workload):
    """Seeded documents with planted near-duplicates, stored as an encoded
    corpus; each request decodes the text, finds near-duplicate pairs and
    keeps one document per duplicate group."""

    name = "dedup"
    n_docs = 500
    n_planted = 50
    vocab = 5_000
    threshold = 0.8
    shingle_k = 5

    def _docs(self):
        rng = np.random.default_rng(self.seed)
        words = [rng.zipf(1.2, int(rng.integers(60, 200))) % self.vocab
                 for _ in range(self.n_docs)]
        planted = []
        # bases of >= 100 words, so one or two substitutions keep J >= 0.85
        long_docs = [i for i, w in enumerate(words) if w.size >= 100]
        for i in rng.choice(long_docs, self.n_planted, replace=False):
            while True:
                w = words[int(i)].copy()
                w[rng.integers(0, w.size, int(rng.integers(1, 3)))] = self.vocab
                if self._jaccard(words[int(i)], w) >= 0.85:
                    break
            planted.append((int(i), len(words)))
            words.append(w)
        ids = [f"d{self.seed:04d}-{i:06d}" for i in range(len(words))]
        self.planted = {(ids[a], ids[b]) for a, b in planted}
        texts = [" ".join(f"w{x}" for x in w) for w in words]
        self.shingles = {i: self._grams(t.split()) for i, t in zip(ids, texts)}
        return pa.table({
            "doc_id": pa.array(ids),
            "tokens": pa.array([w.astype(np.int32) for w in words],
                               pa.list_(pa.int32())),
            "n_tok": pa.array([w.size for w in words], pa.int32()),
            "source": pa.array(["web"] * len(words)),
            "text": pa.array(texts),
        })

    def _grams(self, seq) -> set:
        k = self.shingle_k
        return {tuple(seq[i:i + k]) for i in range(len(seq) - k + 1)}

    def _jaccard(self, a, b) -> float:
        ga, gb = self._grams(list(a)), self._grams(list(b))
        return len(ga & gb) / len(ga | gb)

    def setup(self, d):
        from colonnade_ray.pipelines import encode_corpus

        self.src = write_shards(self._docs(), os.path.join(d, "src"), 2)
        self.corpus = os.path.join(d, "enc")
        self.summary = encode_corpus(self.src, self.corpus)

    def prepare(self):
        self._encoded_sizes(self.summary)

    def _pair_jaccard(self, a, b) -> float:
        ga, gb = self.shingles[a], self.shingles[b]
        return len(ga & gb) / len(ga | gb)

    def _expected_keep(self, pairs) -> set:
        parent = {i: i for i in self.shingles}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return {i for i in self.shingles if find(i) == i}

    def requests(self):
        from colonnade_ray.functions.dedup import dedup_keep, near_dup_pairs
        from colonnade_ray.pipelines import decode_corpus

        def dedup():
            c = self.client
            ds = c.call("decode_corpus", lambda: decode_corpus(
                self.corpus, columns=["doc_id", "text"]).materialize())
            pairs = c.call("functions.dedup.near_dup_pairs", lambda: near_dup_pairs(
                ds, threshold=self.threshold, shingle_k=self.shingle_k).materialize())
            kept = c.call("functions.dedup.dedup_keep",
                          lambda: _dataset_table(dedup_keep(ds, pairs)))
            got = _dataset_table(pairs)
            found = {tuple(sorted(p)) for p in zip(got["id_a"].to_pylist(),
                                                   got["id_b"].to_pylist())}
            return (self.planted <= found
                    and all(self._pair_jaccard(a, b) >= self.threshold
                            for a, b in found)
                    and set(kept["doc_id"].to_pylist()) == self._expected_keep(found))

        while True:
            yield "dedup", dedup


WORKLOADS = {w.name: w for w in (Ingest, Query, Lifecycle, Dedup)}
