"""The cleaning thread (Figure 6) under a crash-stop application server.

An eventually perfect detector suspects a crashed server for the rest of the
run, so the cleaning thread of every survivor makes a pass over that server's
claims every ``clean_interval``.  These tests pin down what a pass costs and
which claims it terminates:

* a pass reads only the ``regA`` cells learned since the previous pass, so its
  cost does not grow with the length of the run (``regA`` is never garbage
  collected, Section 5);
* a cleaning server that crashes and recovers rebuilds its view of the
  suspect's claims from ``regA`` and terminates each of them once more.
"""

from repro.core import DeploymentConfig, EtxDeployment
from repro.failure.injection import FaultSchedule
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=3, initial_balance=1_000)
CRASH_AT = 50.0  # a1 has claimed all three first results and is computing them
HORIZON = 1_000_000.0


def make_deployment(schedule):
    deployment = EtxDeployment(DeploymentConfig(
        num_clients=3, detection_delay=10.0,
        business_logic=BANK.business_logic, initial_data=BANK.initial_data()))
    deployment.apply_faults(schedule)
    return deployment


def issue_round(deployment):
    """One debit per client, concurrently; run until every one is delivered."""
    issued = [deployment.issue(BANK.debit(index, 1), client=client)
              for index, client in enumerate(deployment.config.client_names)]
    assert deployment.sim.run_until(lambda: all(i.delivered for i in issued),
                                    until=deployment.sim.now + HORIZON)


def claims_of(reg_a, claimant):
    return [key for key in reg_a.known_indices() if reg_a.read(key)[0] == claimant]


class CountingReads:
    """A ``regA`` view that counts :meth:`read` calls."""

    def __init__(self, array):
        self.array = array
        self.reads = 0

    def read(self, index):
        self.reads += 1
        return self.array.read(index)

    def __getattr__(self, name):
        return getattr(self.array, name)


class PassProbe:
    """A failure detector view that marks each cleaning pass over ``suspect``.

    The cleaning thread asks the detector about ``suspect`` once per pass, just
    before it visits the suspect's claims; a mark records the ``regA`` reads
    made so far and the number of ``regA`` cells learned so far.
    """

    def __init__(self, detector, suspect, reg_a):
        self.detector = detector
        self.suspect_name = suspect
        self.reg_a = reg_a
        self.marks = []

    def suspect(self, observer, suspected):
        verdict = self.detector.suspect(observer, suspected)
        if verdict and suspected == self.suspect_name:
            self.marks.append((self.reg_a.reads, len(self.reg_a.array.known_indices())))
        return verdict

    def __getattr__(self, name):
        return getattr(self.detector, name)

    def passes(self, start=0):
        """(reads made by the pass, cells learned since the previous pass), per pass."""
        rows = []
        for index in range(max(start, 1), len(self.marks)):
            reads = self.marks[index][0] - self.marks[index - 1][0]
            before = self.marks[index - 2][1] if index >= 2 else 0
            rows.append((reads, self.marks[index - 1][1] - before))
        return rows


def test_cleaning_pass_reads_do_not_grow_with_history():
    deployment = make_deployment(FaultSchedule().crash(CRASH_AT, "a1"))
    survivor = deployment.app_servers["a2"]
    reg_a = CountingReads(survivor.registers.reg_a)
    survivor.registers.reg_a = reg_a
    probe = PassProbe(survivor.failure_detector, "a1", reg_a)
    survivor.failure_detector = probe

    def uncleaned():
        return [(client, j) for client, j in claims_of(reg_a.array, "a1")
                if not deployment.trace.count("as_clean", "a2", client=client, j=j)]

    def quiet_window():
        """Reads per pass over 20 passes with no request in flight."""
        start = len(probe.marks)
        deployment.run(until=deployment.sim.now
                       + 20 * deployment.config.protocol_timing.clean_interval)
        return [reads for reads, _ in probe.passes(start + 1)]

    issue_round(deployment)
    assert len(claims_of(reg_a.array, "a1")) == 3  # a1 claimed, then crashed
    for _ in range(2):  # N more results
        issue_round(deployment)
    after_n = quiet_window()
    backlog_n = len(uncleaned())
    cells_after_n = len(reg_a.known_indices())
    for _ in range(4):  # 2N more
        issue_round(deployment)
    after_3n = quiet_window()
    backlog_3n = len(uncleaned())
    assert len(reg_a.known_indices()) >= cells_after_n + 12

    # A pass with nothing new to learn reads at most the suspect's uncleaned
    # claims, whatever the length of the run.
    assert len(after_n) >= 10 and len(after_3n) >= 10
    assert max(after_n) <= backlog_n
    assert max(after_3n) <= backlog_3n
    assert after_3n == after_n
    # Any pass reads at most the regA cells learned since the previous pass.
    for reads, learned in probe.passes():
        assert reads <= learned
    assert deployment.check_spec().ok


def test_recovered_cleaner_rebuilds_its_index_and_cleans_each_claim_once():
    recover_at = 400.0
    schedule = FaultSchedule().crash(CRASH_AT, "a1").crash(80.0, "a2").recover(recover_at, "a2")
    deployment = make_deployment(schedule)
    issue_round(deployment)
    deployment.run(until=deployment.sim.now + 5_000.0)

    claims = claims_of(deployment.app_servers["a3"].registers.reg_a, "a1")
    assert len(claims) == 3
    cleaned = deployment.trace.select("as_clean", "a2")
    before = [(e.data["client"], e.data["j"]) for e in cleaned if e.time < recover_at]
    after = [(e.data["client"], e.data["j"]) for e in cleaned if e.time >= recover_at]
    assert 0 < len(before) < len(claims)  # crashed half way through its cleaning
    assert sorted(after) == sorted(claims)  # every claim, each exactly once
    assert deployment.check_spec().ok
