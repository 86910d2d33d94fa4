from .decode import decode_batch, decode_chunk_row
from .encode import EncodeSpec, encode_batch, encode_chunk
from .skew import AddPartitionKey, partition_by_source, salt_counts, source_token_totals
from .verify import batch_digest, dataset_digest, hash_column, hash_token_lists
