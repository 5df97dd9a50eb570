"""PHY-layer abstraction: numerology, CQI/MCS tables, fading channels."""
