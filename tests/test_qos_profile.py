"""Tests for the QoS class registry (paper Table 1)."""

import pytest

from repro.net.qos_profile import (
    APPLICATION_QCI,
    QCI_TABLE,
    TrafficClass,
    profile_for_application,
)


class TestTable1:
    def test_voip_gets_dedicated_gbr_bearer(self):
        profile = profile_for_application("voip")
        assert profile.qci == 1
        assert profile.resource_type == "GBR"
        assert profile.guaranteed_bitrate_kbps == 14  # paper: GBR = 14 kbps
        assert profile.traffic_class is TrafficClass.CONVERSATIONAL

    def test_ims_high_priority_best_effort(self):
        profile = profile_for_application("ims_signaling")
        assert profile.qci == 5
        assert profile.resource_type == "Non-GBR"
        assert profile.priority == 1

    @pytest.mark.parametrize(
        "app", ["web_browsing", "social_networking", "tcp_video", "file_transfer"]
    )
    def test_internet_apps_share_default_qci6(self, app):
        """The paper's key observation: interactive and background data
        applications all land on the same best-effort bearer."""
        profile = profile_for_application(app)
        assert profile.qci == 6
        assert profile.resource_type == "Non-GBR"

    def test_interactive_and_background_same_service(self):
        web = profile_for_application("web_browsing")
        ftp = profile_for_application("file_transfer")
        assert web.qci == ftp.qci
        assert web.priority == ftp.priority

    def test_unknown_application(self):
        with pytest.raises(ValueError):
            profile_for_application("quake")

    def test_qci_table_priorities_unique(self):
        priorities = [p.priority for p in QCI_TABLE.values()]
        assert len(priorities) == len(set(priorities))

    def test_gbr_profiles_only_conversational_or_streaming(self):
        for profile in QCI_TABLE.values():
            if profile.resource_type == "GBR":
                assert profile.traffic_class in (
                    TrafficClass.CONVERSATIONAL,
                    TrafficClass.STREAMING,
                )

    def test_every_known_app_maps_to_a_table_row(self):
        for app in APPLICATION_QCI:
            assert profile_for_application(app).qci in QCI_TABLE
