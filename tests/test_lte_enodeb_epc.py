"""Unit tests for the eNodeB scheduler and the minimal EPC."""

import numpy as np
import pytest

from repro.lte.enodeb import ENodeB
from repro.lte.epc import EPC, BearerState
from repro.lte.ue import UE, UEState


def _ue(i):
    return UE(ue_id=i)


class TestEPC:
    def test_attach_provisioned(self):
        epc = EPC()
        ue = _ue(1)
        epc.provision(ue.imsi)
        record = epc.attach(ue)
        assert ue.state is UEState.CONNECTED
        assert record.state is BearerState.ACTIVE
        assert record.bearer_id == 5

    def test_attach_unknown_imsi_rejected(self):
        epc = EPC()
        ue = _ue(2)
        with pytest.raises(PermissionError):
            epc.attach(ue)
        assert ue.state is UEState.DETACHED

    def test_detach_releases_bearer(self):
        epc = EPC()
        ue = _ue(3)
        epc.provision(ue.imsi)
        epc.attach(ue)
        epc.detach(ue)
        assert ue.state is UEState.DETACHED
        assert epc.session_of(ue.imsi).state is BearerState.RELEASED
        assert epc.active_sessions() == []

    def test_traffic_accounting(self):
        epc = EPC()
        ue = _ue(4)
        epc.provision(ue.imsi)
        epc.attach(ue)
        epc.account_traffic(ue.imsi, down_bytes=1000, up_bytes=200)
        epc.account_traffic(ue.imsi, down_bytes=500)
        record = epc.session_of(ue.imsi)
        assert record.bytes_down == 1500
        assert record.bytes_up == 200

    def test_traffic_requires_active_session(self):
        epc = EPC()
        with pytest.raises(KeyError):
            epc.account_traffic("000000", down_bytes=1)

    def test_negative_traffic_rejected(self):
        epc = EPC()
        ue = _ue(5)
        epc.provision(ue.imsi)
        epc.attach(ue)
        with pytest.raises(ValueError):
            epc.account_traffic(ue.imsi, down_bytes=-1)

    def test_empty_imsi_rejected(self):
        with pytest.raises(ValueError):
            EPC().provision("")


class TestENodeB:
    def test_register_attaches_via_epc(self):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        assert ue.state is UEState.CONNECTED
        assert enb.epc.is_provisioned(ue.imsi)
        assert enb.connected_ues() == [ue]

    def test_duplicate_id_rejected(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        with pytest.raises(ValueError):
            enb.register_ue(_ue(1))

    def test_deregister(self):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        enb.deregister_ue(1)
        assert enb.ues == []
        assert ue.state is UEState.DETACHED

    def test_rr_scheduler_splits_prbs(self):
        enb = ENodeB()
        for i in (1, 2, 3):
            enb.register_ue(_ue(i))
        result = enb.schedule({1: 20.0, 2: 20.0, 3: 20.0})
        assert sum(result.prb_share.values()) == enb.n_prb
        shares = sorted(result.prb_share.values())
        assert shares[-1] - shares[0] <= 1  # near-equal split

    def test_scheduler_skips_unreported_ues(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        enb.register_ue(_ue(2))
        result = enb.schedule({1: 15.0})
        assert set(result.prb_share) == {1}
        assert result.prb_share[1] == enb.n_prb

    def test_shared_vs_full_cell(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        enb.register_ue(_ue(2))
        shared = enb.schedule({1: 20.0, 2: 20.0}).throughput_mbps
        full = enb.full_cell_throughput({1: 20.0, 2: 20.0})
        assert shared[1] == pytest.approx(full[1] / 2, rel=0.1)

    def test_srs_roundtrip(self, rng):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        rx = enb.receive_srs_batch(ue, np.array([7.0]), np.array([30.0]), rng)[0]
        known = enb.known_srs_symbol(ue)
        corr = np.abs(np.fft.ifft(rx * np.conj(known)))
        assert int(np.argmax(corr)) == 7

    def test_ue_auto_imsi(self):
        ue = UE(ue_id=42)
        assert ue.imsi.startswith("00101")
        assert ue.imsi.endswith("42")

    def test_ue_move(self):
        ue = _ue(1)
        ue.move_to(10.0, 20.0)
        assert ue.position.x == 10.0
        assert ue.position.z == pytest.approx(1.5)
        ue.move_to(1.0, 2.0, 3.0)
        assert ue.position.z == 3.0
