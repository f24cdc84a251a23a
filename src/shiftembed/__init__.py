"""shiftembed: marker towers, hierarchical block codes and Besicovitch
diagnostics for symbolic embeddings of zero-dimensional systems."""

from .codec import (SymbolStream, build_first_codebook,
                    build_conditional_codebook, build_periodic_code,
                    decode_k, encode_k, encode_limit, encode_scales, invert)
from .entropy import (ScaleSchedule, appendix_fullness_check, build_schedule,
                      conditional_count, htop_estimate, verify_schedule)
from .markers import (PeriodicNeighborhood, build_towers, return_partition,
                      verify_tower)
from .metrics import (besicovitch_estimate, cantor_distance, dN_distance,
                      empirical_measure, hausdorff_distance, measure_distance)
from .pipeline import build_pipeline, load_pipeline, sample_points, save_pipeline
from .systems import (Odometer, OdometerPoint, Point, Sft, orbit_system,
                      coordinate, enumerate_periodic, enumerate_words,
                      itinerary, parse_point, parse_system, product_coding,
                      serialize_point, serialize_system)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
