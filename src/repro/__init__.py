"""repro — reproduction of *Understanding Mobile Traffic Patterns of Large
Scale Cellular Towers in Urban Environment* (Wang et al., ACM IMC 2015).

The package is organised as the paper's system is:

* :mod:`repro.synth` — synthetic urban traffic substrate standing in for the
  proprietary Shanghai operator trace (city model, POI layer, towers, users,
  session logs, corruption, geocoder);
* :mod:`repro.ingest` — trace cleaning, geocoding and density computation;
* :mod:`repro.vectorize` — the traffic vectorizer;
* :mod:`repro.cluster` — the pattern identifier (hierarchical clustering) and
  metric tuner (Davies–Bouldin);
* :mod:`repro.spectral` — frequency-domain analysis (DFT, principal
  components, amplitude/phase features);
* :mod:`repro.decompose` — representative towers and convex decomposition
  onto the four primary components;
* :mod:`repro.geo` — POI profiles, TF-IDF/NTF-IDF, labelling and validation;
* :mod:`repro.analysis` — time-domain characterisation of the patterns;
* :mod:`repro.viz` — ASCII/CSV reporting helpers;
* :mod:`repro.core` — the end-to-end :class:`~repro.core.model.TrafficPatternModel`;
* :mod:`repro.io` — persistent model bundles (save/load/update) and the
  in-process :class:`~repro.io.server.ModelServer` query layer.
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

# Imported on first access, so ``import repro`` loads none of the fit stack:
# a server imports only what serving needs.
_EXPORTS = {
    "core.config": ("ModelConfig",),
    "core.model": ("TrafficPatternModel",),
    "core.results": ("ModelResult",),
    "io.persist": ("PersistError", "load_model", "save_model"),
    "io.server": ("ModelServer",),
    "synth.scenario": ("Scenario", "ScenarioConfig", "generate_scenario"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*sorted(name for names in _EXPORTS.values() for name in names), "__version__"]
