"""Trace ingestion and preprocessing.

Mirrors Section 2.2 of the paper: raw operator logs are cleaned (redundant
and conflicting records removed), base-station addresses are geocoded to
latitude/longitude, and the per-km² traffic density is computed.  The
package also defines the columnar :class:`RecordBatch`, the one record type
every step (and the synthetic trace generator) runs on, the station
metadata, and CSV readers and writers (records are read as a stream of
chunked batches), so traces can be stored on disk and re-ingested
out-of-core.
"""

from repro.ingest.batch import (
    NETWORK_CODES,
    NETWORK_NAMES,
    RecordBatch,
    decode_networks,
    encode_networks,
)
from repro.ingest.dedup import DedupReport, clean_batch, clean_chunk
from repro.ingest.density import TrafficDensityMap, compute_density_map
from repro.ingest.geocode import GeocodingReport, geocode_stations
from repro.ingest.loader import (
    DEFAULT_CHUNK_SIZE,
    TraceFormatError,
    iter_record_batches_csv,
    read_record_batch_csv,
    read_stations_csv,
    write_records_csv,
    write_stations_csv,
)
from repro.ingest.preprocess import PreprocessingReport, PreprocessingResult, preprocess_trace
from repro.ingest.records import BaseStationInfo

__all__ = [
    "BaseStationInfo",
    "DEFAULT_CHUNK_SIZE",
    "DedupReport",
    "GeocodingReport",
    "NETWORK_CODES",
    "NETWORK_NAMES",
    "PreprocessingReport",
    "PreprocessingResult",
    "RecordBatch",
    "TraceFormatError",
    "TrafficDensityMap",
    "clean_batch",
    "clean_chunk",
    "compute_density_map",
    "decode_networks",
    "encode_networks",
    "geocode_stations",
    "iter_record_batches_csv",
    "preprocess_trace",
    "read_record_batch_csv",
    "read_stations_csv",
    "write_records_csv",
    "write_stations_csv",
]
