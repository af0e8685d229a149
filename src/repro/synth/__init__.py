"""Synthetic urban cellular traffic substrate.

The paper analyses a proprietary month-long trace collected by a Shanghai
operator (9,600 towers, 150,000 subscribers).  That trace is not available,
so this package provides a faithful synthetic replacement:

* a city model with urban functional regions (resident, transport, office,
  entertainment, comprehensive), a point-of-interest (POI) layer and cellular
  towers placed inside those regions (:mod:`repro.synth.city`,
  :mod:`repro.synth.regions`, :mod:`repro.synth.poi`,
  :mod:`repro.synth.towers`);
* ground-truth diurnal/weekly activity templates per region type matching the
  qualitative shapes the paper reports (:mod:`repro.synth.activity`);
* a user population with home/work anchors (:mod:`repro.synth.users`);
* a fast profile-level traffic generator producing per-tower 10-minute series
  (:mod:`repro.synth.traffic`) and a session-level generator producing raw
  connection logs that exercise the full ingestion pipeline
  (:mod:`repro.synth.sessions`);
* log corruption (duplicates and conflicting records) so the cleaning stage
  has realistic work to do (:mod:`repro.synth.noise`);
* a deterministic geocoding service standing in for the Baidu Map API
  (:mod:`repro.synth.geocoder`);
* a one-call scenario builder (:mod:`repro.synth.scenario`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "activity": ("ActivityProfileLibrary", "ActivityTemplate"),
    "city": ("CityConfig", "CityModel", "build_city"),
    "geocoder": ("GeocodeResult", "SyntheticGeocoder"),
    "noise": ("LogCorruptionConfig", "corrupt_batch"),
    "poi": ("POI", "POICategory", "generate_pois"),
    "regions": ("Region", "RegionLayoutConfig", "RegionType", "generate_regions"),
    "scenario": ("Scenario", "ScenarioConfig", "generate_scenario"),
    "sessions": ("SessionGenerationConfig", "generate_session_batch"),
    "towers": ("Tower", "place_towers"),
    "traffic": ("TrafficGenerationConfig", "TowerTrafficMatrix", "generate_tower_traffic"),
    "users": ("User", "UserPopulationConfig", "generate_users"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
