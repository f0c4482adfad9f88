"""plkit: path-loss modeling and drive-test analysis for sub-6 GHz coverage.

Modules:
  geo       tangent-plane projection, link angles, grid cells, polygons
  antenna   gain patterns, grid-of-beams envelopes, gain lookup
  models    closed-form path-loss model suite with catalog metadata
  ingest    measurement-log and site-config parsing
  analysis  binning, link-budget extraction, regression, error statistics
  cli       the ``plkit`` command-line pipeline
"""

__version__ = "0.1.0"

from .analysis import (
    BinAggregate,
    CdfSeries,
    ErrorStats,
    FitResult,
    GridBin,
    aggregate_bins,
    classify_los,
    distance_profile,
    extract_path_loss,
    fit_log_distance,
    frequency_offset,
    o2i_cdf,
    prediction_errors,
    shadow_fading,
    synthesize_from_model,
    synthesize_samples,
)
from .antenna import AntennaPattern, envelope, gain_at
from .geo import GeodeticPoint, GridIndex, LocalPoint, Polygon
from .ingest import (
    IndoorSession,
    MeasurementSample,
    SiteConfig,
    load_site_config,
    parse_scanner_log,
    parse_testbed_log,
)
from .models import LinkGeometry, MODEL_CATALOG, fspl_db, log_distance, predict_series
