from ..stages.encode import EncodeSpec
from .encode_pipeline import (
    active_groups,
    compact_corpus,
    completed_groups,
    corpus_summary,
    decode_corpus,
    decode_dataset,
    decode_digest_corpus,
    encode_corpus,
    encode_dataset,
    roundtrip_verify,
    sweep_orphans,
)
from .pushdown import (
    aggregate_where,
    approx_distinct,
    approx_quantiles,
    count_where,
    group_aggregates,
    group_counts,
    grouped_approx_quantiles,
    grouped_topk_where,
    summary_where,
    topk_where,
)
from .evolve import (
    add_columns,
    drop_columns,
    rename_columns,
    replace_where,
    update_where,
)
from .deletes import (
    committed_deletes,
    delete_where,
    deleted_row_count,
    load_delete_masks,
    vacuum_deletes,
)
from .concurrency import (
    ConcurrentWriteError,
    WriterSession,
    commit_lock,
    corpus_generation,
)
from .merge import apply_changes, merge_rows
from .snapshots import (
    create_snapshot,
    decode_snapshot,
    drop_snapshot,
    list_snapshots,
    pinned_groups,
    restore_snapshot,
)
