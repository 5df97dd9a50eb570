"""Tests for the Alexa webpage workload dataset (paper Table 2)."""

import numpy as np
import pytest

from repro.traffic.webpage import (
    ALEXA_TOP20,
    PAGES_BY_NAME,
    Webpage,
    page_flow_sizes,
    page_waves,
)


class TestDataset:
    def test_twenty_pages(self):
        assert len(ALEXA_TOP20) == 20

    def test_nine_quic_pages(self):
        """Paper section 6.1: 9 of the top 20 support QUIC."""
        assert sum(1 for p in ALEXA_TOP20 if p.supports_quic) == 9

    def test_table2_facebook_row(self):
        fb = PAGES_BY_NAME["facebook.com"]
        assert fb.page_bytes == 381_000
        assert fb.num_flows == 33
        assert fb.num_quic_flows == 21
        assert fb.quic_bytes == 206_000

    def test_table2_sohu_row(self):
        sohu = PAGES_BY_NAME["sohu.com"]
        assert sohu.num_flows == 522
        assert sohu.num_quic_flows == 8

    def test_quic_bytes_never_exceed_page(self):
        for page in ALEXA_TOP20:
            assert page.quic_bytes <= page.page_bytes

    def test_quic_flows_never_exceed_flows(self):
        for page in ALEXA_TOP20:
            assert page.num_quic_flows <= page.num_flows

    def test_invalid_page_rejected(self):
        with pytest.raises(ValueError):
            Webpage("bad", page_bytes=0, num_flows=3)
        with pytest.raises(ValueError):
            Webpage("bad", page_bytes=100, num_flows=1, num_quic_flows=2)


class TestFlowSizes:
    def test_sizes_sum_to_page_bytes(self):
        rng = np.random.default_rng(0)
        for page in ALEXA_TOP20[:5]:
            sizes = page_flow_sizes(page, rng)
            assert len(sizes) == page.num_flows
            assert sum(sizes) == pytest.approx(page.page_bytes, rel=0.02)

    def test_sizes_positive(self):
        rng = np.random.default_rng(1)
        for page in ALEXA_TOP20:
            assert min(page_flow_sizes(page, rng)) >= 200

    def test_skewed_split(self):
        """Real pages have a few large resources among many small ones."""
        rng = np.random.default_rng(2)
        sizes = page_flow_sizes(PAGES_BY_NAME["reddit.com"], rng)
        assert max(sizes) > 5 * np.median(sizes)


class TestWaves:
    def test_first_wave_is_root_document(self):
        rng = np.random.default_rng(0)
        page = PAGES_BY_NAME["google.com"]
        sizes = page_flow_sizes(page, rng)
        waves = page_waves(page, sizes)
        assert waves[0] == [sizes[0]]

    def test_all_flows_covered_once(self):
        rng = np.random.default_rng(1)
        page = PAGES_BY_NAME["youtube.com"]
        sizes = page_flow_sizes(page, rng)
        waves = page_waves(page, sizes)
        assert sum(len(w) for w in waves) == page.num_flows

    def test_wave_count_bounded(self):
        rng = np.random.default_rng(2)
        page = PAGES_BY_NAME["netflix.com"]
        waves = page_waves(page, page_flow_sizes(page, rng))
        assert 1 <= len(waves) <= page.waves + 1

    def test_size_mismatch_rejected(self):
        page = PAGES_BY_NAME["google.com"]
        with pytest.raises(ValueError):
            page_waves(page, [100, 200])


class TestWebpageEdges:
    def test_single_flow_page(self):
        page = Webpage("one.example", page_bytes=10_000, num_flows=1, waves=3)
        rng = np.random.default_rng(0)
        sizes = page_flow_sizes(page, rng)
        assert sizes == [10_000]
        waves = page_waves(page, sizes)
        assert waves == [[10_000]]

    def test_two_flow_page_has_root_then_rest(self):
        page = Webpage("two.example", page_bytes=10_000, num_flows=2, waves=3)
        rng = np.random.default_rng(1)
        waves = page_waves(page, page_flow_sizes(page, rng))
        assert len(waves) == 2
        assert len(waves[0]) == 1
