"""Deterministic step machines for the built-in algorithms.

Each machine compiles one Decide procedure down to steps that perform at
most one shared-object access each; multi-register guards become
sequences of single-read steps with the condition evaluated on the local
copies.  Program counters carry stable line labels so traces can be
audited against the pseudo-code.

Built-in machines:
  fig1       two-process transformation wrapping a conventional
             consensus instance C; tolerates simultaneous crashes
  fig2       n-process transformation using f+1 consensus instances
             C[0..f]; tolerates up to f independent crashes
  fig3       two-process CAS protocol whose crash steps can decide
  cas-rc     bare CAS race, recoverable under either failure model
  tas-cons2  classic announce/TAS two-process consensus; conventional
             (crash-oblivious) building block for fig1/fig2

The conventional consensus is written once, as `InnerCons`: fig1 runs one
instance C of it, fig2 one instance C[k] per iteration, and tas-cons2 runs
it bare.  `cons` selects its atomic or its announce/TAS form; the wrapping
machines delegate every step at one of its lines to it.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from . import objects
from .core import BOTTOM, UNINIT, Frame

END = "end"


class Next(NamedTuple):
    """Control transfer after a step's one access: the next line, the locals
    it sets, and the consensus instance the step begins, if any."""

    pc: str
    updates: Optional[dict] = None
    instance: Optional[str] = None


class Ret(NamedTuple):
    value: Any


class InnerCons:
    """One instance of the conventional consensus that fig1 and fig2 wrap
    and tas-cons2 runs bare.

    With `cons="atomic"` it is a single `decide` on a `Cons` object named
    after the instance.  With `cons="tas"` it is two-process consensus from
    registers and test-and-set: announce the value in `A[i]`, `tas` on `T`,
    and a loser adopts the winner's announcement.  Either way the decision
    lands in the local `d` and control continues at `exit`.

    `line` prefixes the construction's line labels (`line + "wA"` and so
    on); the atomic decide line is `line` without its trailing dot.  An
    instance named `name` owns the objects `name.A[i]`/`name.T` (bare
    `A[i]`/`T` for the nameless instance, which no genericity monitor
    watches).
    """

    def __init__(self, cons, line, exit):
        self.atomic = cons == "atomic"
        self.exit = exit
        if self.atomic:
            self.entry = line.rstrip(".")
            self.lines = frozenset([self.entry])
        else:
            self.entry = line + "wA"
            self._tas = line + "tas"
            self._ra = line + "rA"
            self.lines = frozenset([self.entry, self._tas, self._ra])
        self.steps = len(self.lines)  # ordinary steps of one pass through

    def layout(self, name):
        if self.atomic:
            return [(name, objects.Cons())]
        p = name + "." if name else ""
        return [
            (p + "A[1]", objects.Register()),
            (p + "A[2]", objects.Register()),
            (p + "T", objects.Tas()),
        ]

    def step(self, frame, access, name, value):
        """The step at `frame.pc`, one of `lines`, proposing `value`."""
        i = frame.pid
        if self.atomic:
            return Next(self.exit, {"d": access(name, "decide", (i, frame.attempt, value))}, name)
        pc = frame.pc
        p = name + "." if name else ""
        if pc == self.entry:
            access("%sA[%d]" % (p, i), "write", (value,))
            return Next(self._tas, instance=name or None)
        if pc == self._tas:
            if access(p + "T", "tas") == 0:
                return Next(self.exit, {"d": value})
            return Next(self._ra)
        return Next(self.exit, {"d": access("%sA[%d]" % (p, 3 - i), "read")})


class Machine:
    """A step machine for one algorithm.

    `layout()` fixes the shared objects and their order; a state's
    `objects` tuple holds their values in that order, so the invariant
    hooks read an object by its slot (its position in the layout).

    `check_state(state)` is the state invariant, which every state the
    checker reaches must pass.  It is a conjunction: `check_frame(frame,
    failures)` on each frame, then `check_objects(objects, failures)`.  A
    machine overrides those two, not `check_state`, and neither may read a
    frame's `attempt`.  The checker caches each per component id, and
    since an edge's pre-state already passed, it re-checks only the
    components the edge changed.  An ordinary step changes one frame and
    at most one object and leaves `failures` alone, so the checker
    re-checks the moved frame, and the objects only when the step wrote
    one.  A crash changes `failures`, so it re-checks every frame and the
    objects.  In a search, `check_state` itself runs on the initial state
    alone.

    `check_edge(pre_objects, post_objects)` sees only the object tuples
    before and after an edge, and the checker skips it on edges that left
    the tuple itself in place (reads, `rtas`, a failed `cas`, crashes).
    An edge invariant must therefore be a function of the objects alone,
    and must hold whenever no object changed.

    `step(frame, access)` names the step's shared-object access and the
    control transfer after it; the experiment performs the access.
    `access(name, op, args=())` applies `op` to the object `name` and
    returns the response.  A step that returns `Next` calls `access`
    exactly once; a step that returns `Ret` calls it never.  `step` must
    be a pure function of the frame and of that response.  The
    experiment's transition table relies on this: it runs `step` once per
    (frame, value of the object accessed) and serves every later equal
    step from the table.  A step that raises is never recorded, so it
    raises again on every visit.  What a step means for the whole state
    (genericity bookkeeping, participants, assumption 1's armed crash) is
    not the machine's business; the experiment works it out on every step.
    """

    program_id = ""
    entry = ""
    # the config fields the constructor takes, by keyword (`build_machine`);
    # a machine that takes no `n` runs 2 processes
    params = ("n",)

    def __init__(self, n: int):
        self.n = n

    def init_locals(self, pid: int, proposal) -> dict:
        raise NotImplementedError

    def layout(self) -> list:
        """Fixed [(name, initial value)] order for the object store."""
        raise NotImplementedError

    def step(self, frame: Frame, access):
        """One transition for `frame`: a `Next` after one `access`, or a `Ret`."""
        raise NotImplementedError

    def bound(self) -> int:
        """Static upper bound on ordinary steps in a single attempt."""
        raise NotImplementedError

    # Machine-specific invariants; each returns an error string or None.
    def check_state(self, state) -> Optional[str]:
        for fr in state.frames:
            err = self.check_frame(fr, state.failures)
            if err:
                return err
        return self.check_objects(state.objects, state.failures)

    def check_frame(self, frame: Frame, failures: int) -> Optional[str]:
        return None

    def check_objects(self, objects, failures: int) -> Optional[str]:
        return None

    def check_edge(self, pre_objects, post_objects) -> Optional[str]:
        return None


# fig1's tie-break when both proposals are announced and D is bottom:
# (p1's proposal, p2's proposal) -> the value returned.  Only the configured
# one runs, so `min` and `max` see proposals the config checked are orderable.
_TIE_BREAKS = {"p1": lambda p1, p2: p1, "p2": lambda p1, p2: p2, "min": min, "max": max}


class Fig1Machine(Machine):
    """Two-process recoverable consensus from one conventional instance C.

    Announce in P[i], run C, record the outcome in D; on re-execution the
    state of P[1..2] and D determines a safe recovery branch.  Tolerates
    arbitrarily many simultaneous crashes.
    """

    program_id = "fig1"
    entry = "x:if"
    params = ("cons", "choice")

    def __init__(self, cons="atomic", choice="p1"):
        super().__init__(2)
        self.inner = InnerCons(cons, "x:C.", "x:wD")
        self.choice = choice

    def init_locals(self, pid, proposal):
        return {"p_self": UNINIT, "p_other": UNINIT, "d": UNINIT}

    def layout(self):
        return [
            ("P[1]", objects.Register()),
            ("P[2]", objects.Register()),
            ("D", objects.Register()),
        ] + self.inner.layout("C")

    def bound(self):
        # guard reads + announce + inner decide + record + return
        return 3 + self.inner.steps + 2

    def _both_ways(self, frame):
        i = frame.pid
        p1 = frame.loc("p_self") if i == 1 else frame.loc("p_other")
        p2 = frame.loc("p_other") if i == 1 else frame.loc("p_self")
        return p1, p2

    def step(self, frame, access):
        i = frame.pid
        pc = frame.pc
        if pc in self.inner.lines:
            return self.inner.step(frame, access, "C", frame.proposal)
        if pc == "x:if":
            return Next("x:if2", {"p_self": access("P[%d]" % i, "read")})
        if pc == "x:if2":
            resp = access("P[%d]" % (3 - i), "read")
            nxt = "x:wP" if frame.loc("p_self") is BOTTOM and resp is BOTTOM else "x:recD"
            return Next(nxt, {"p_other": resp})
        if pc == "x:wP":
            access("P[%d]" % i, "write", (frame.proposal,))
            return Next(self.inner.entry)
        if pc == "x:wD":
            access("D", "write", (frame.loc("d"),))
            return Next("x:retd")
        if pc == "x:retd":
            return Ret(frame.loc("d"))
        if pc == "x:recD":
            resp = access("D", "read")
            if resp is not BOTTOM:
                return Next("x:recDret", {"d": resp})
            p_self = frame.loc("p_self")
            p_other = frame.loc("p_other")
            if p_self is not BOTTOM and p_other is BOTTOM:
                nxt = "x:inbotObotret"
            elif p_self is BOTTOM and p_other is not BOTTOM:
                nxt = "x:ibotOnbotret"
            else:
                nxt = "x:inbotOnbotret"
            return Next(nxt, {"d": resp})
        if pc == "x:recDret":
            return Ret(frame.loc("d"))
        if pc == "x:inbotObotret":
            return Ret(frame.loc("p_self"))
        if pc == "x:ibotOnbotret":
            return Ret(frame.loc("p_other"))
        if pc == "x:inbotOnbotret":
            return Ret(_TIE_BREAKS[self.choice](*self._both_ways(frame)))
        raise AssertionError("fig1: unreachable pc %r" % pc)


# fig2's lines past the iteration claim, but those of the inner consensus
_FIG2_BODY_PCS = frozenset(["xn:inc", "xn:forado", "xn:wD", "xn:ifp", "xn:forp", "xn:retd"])


class Fig2Machine(Machine):
    """n-process recoverable consensus from f+1 conventional instances.

    R[i] gates which instance C[k] a process may claim (so no instance is
    ever re-entered after a crash), D[0..k-1] propagates decisions from
    earlier iterations, and the R-scan after deciding forgets a decision
    that raced with a faster process.
    """

    program_id = "fig2"
    entry = "xn:if"
    params = ("n", "f", "cons", "scan_order")

    def __init__(self, n, f, cons="atomic", scan_order="asc"):
        super().__init__(n)
        self.f = f
        self.inner = InnerCons(cons, "xn:C.", "xn:wD")
        self.scan_order = scan_order
        self._body_pcs = _FIG2_BODY_PCS | self.inner.lines
        slots = {name: i for i, (name, _) in enumerate(self.layout())}
        self._r_slots = tuple((i, slots["R[%d]" % i]) for i in range(1, n + 1))
        self._k_pos = sorted(self.init_locals(1, None)).index("k")

    def init_locals(self, pid, proposal):
        return {
            "k": 0,
            "kp": UNINIT,
            "v": proposal,
            "d": UNINIT,
            "zi": UNINIT,
            "r": UNINIT,
            "rself": UNINIT,
        }

    def layout(self):
        out = [("R[%d]" % i, objects.Register(0)) for i in range(1, self.n + 1)]
        out += [("D[%d]" % k, objects.Register()) for k in range(self.f + 1)]
        for k in range(self.f + 1):
            out += self.inner.layout("C[%d]" % k)
        return out

    def bound(self):
        total = 1  # final return
        for k in range(self.f + 1):
            total += 2 + k + self.inner.steps + 1
            if k < self.f:
                total += 1 + (self.n - 1)
        return total

    def others(self, pid):
        out = [z for z in range(1, self.n + 1) if z != pid]
        if self.scan_order == "desc":
            out.reverse()
        return out

    def step(self, frame, access):
        i = frame.pid
        pc = frame.pc
        if pc in self.inner.lines:
            return self.inner.step(frame, access, "C[%d]" % frame.loc("k"), frame.loc("v"))
        if pc == "xn:if":
            k = frame.loc("k")
            resp = access("R[%d]" % i, "read")
            if resp == k:
                return Next("xn:inc", {"r": resp})
            if k < self.f:
                return Next("xn:if", {"r": resp, "k": k + 1})
            return Next(END, {"r": resp})
        if pc == "xn:inc":
            k = frame.loc("k")
            access("R[%d]" % i, "write", (k + 1,))
            if k > 0:
                return Next("xn:forado", {"kp": 0})
            return Next(self.inner.entry)
        if pc == "xn:forado":
            k = frame.loc("k")
            kp = frame.loc("kp")
            resp = access("D[%d]" % kp, "read")
            upd = {}
            if resp is not BOTTOM:
                # ascending scan overwrites, leaving the largest index's value
                upd["v"] = resp
            if kp + 1 <= k - 1:
                upd["kp"] = kp + 1
                return Next("xn:forado", upd)
            return Next(self.inner.entry, upd)
        if pc == "xn:wD":
            k = frame.loc("k")
            access("D[%d]" % k, "write", (frame.loc("d"),))
            return Next("xn:ifp" if k < self.f else "xn:retd")
        if pc == "xn:ifp":
            return Next("xn:forp", {"rself": access("R[%d]" % i, "read"), "zi": 0})
        if pc == "xn:forp":
            zs = self.others(i)
            zi = frame.loc("zi")
            resp = access("R[%d]" % zs[zi], "read")
            upd = {}
            d = frame.loc("d")
            if resp > frame.loc("rself"):
                upd["d"] = BOTTOM
                d = BOTTOM
            if zi + 1 < len(zs):
                upd["zi"] = zi + 1
                return Next("xn:forp", upd)
            if d is not BOTTOM:
                return Next("xn:retd", upd)
            upd["k"] = frame.loc("k") + 1
            return Next("xn:if", upd)
        if pc == "xn:retd":
            return Ret(frame.loc("d"))
        raise AssertionError("fig2: unreachable pc %r" % pc)

    # No process may be inside iteration k before k crashes happened,
    # and R[i] = x+1 certifies that its owner began iteration x.
    def check_frame(self, frame, failures):
        if frame.status == "running" and frame.pc in self._body_pcs:
            # locals are sorted (name, value) pairs over a fixed name set
            k = frame.locals[self._k_pos][1]
            if k is not UNINIT and failures < k:
                return (
                    "p%d is in iteration %d with only %d failures so far"
                    % (frame.pid, k, failures)
                )
        return None

    def check_objects(self, objs, failures):
        for i, slot in self._r_slots:
            r = objs[slot].value
            if failures < r - 1:
                return "R[%d]=%d with only %d failures so far" % (i, r, failures)
        return None

    def check_edge(self, pre_objects, post_objects):
        for i, slot in self._r_slots:
            if post_objects[slot].value < pre_objects[slot].value:
                return "R[%d] decreased" % i
        return None


class Fig3Machine(Machine):
    """Two-process CAS protocol where a crash step can be a decision step.

    A process that crashed before announcing yields to an opponent that
    did announce, so crashing the laggard settles the race.
    """

    program_id = "fig3"
    entry = "ex:if"
    params = ()

    def __init__(self):
        super().__init__(2)

    def init_locals(self, pid, proposal):
        return {"p_self": UNINIT, "p_other": UNINIT, "d": UNINIT}

    def layout(self):
        return [
            ("P[1]", objects.Register()),
            ("P[2]", objects.Register()),
            ("C", objects.Cas()),
        ]

    def bound(self):
        return 6

    def step(self, frame, access):
        i = frame.pid
        pc = frame.pc
        if pc == "ex:if":
            resp = access("P[%d]" % i, "read")
            return Next("ex:wP" if resp is not BOTTOM else "ex:if2", {"p_self": resp})
        if pc == "ex:if2":
            resp = access("P[%d]" % (3 - i), "read")
            return Next("ex:retpo" if resp is not BOTTOM else "ex:wP", {"p_other": resp})
        if pc == "ex:retpo":
            return Ret(frame.loc("p_other"))
        if pc == "ex:wP":
            access("P[%d]" % i, "write", (frame.proposal,))
            return Next("ex:CAS")
        if pc == "ex:CAS":
            # the pseudo-code discards the CAS response and re-reads C
            access("C", "cas", (BOTTOM, frame.proposal))
            return Next("ex:rC")
        if pc == "ex:rC":
            return Next("ex:retC", {"d": access("C", "cas_read")})
        if pc == "ex:retC":
            return Ret(frame.loc("d"))
        raise AssertionError("fig3: unreachable pc %r" % pc)


class CasRcMachine(Machine):
    """Swap-your-input-into-bottom via CAS; the prior value is the decision."""

    program_id = "cas-rc"
    entry = "c:cas"

    def init_locals(self, pid, proposal):
        return {"d": UNINIT}

    def layout(self):
        return [("C", objects.Cas())]

    def bound(self):
        return 2

    def step(self, frame, access):
        if frame.pc == "c:cas":
            resp = access("C", "cas", (BOTTOM, frame.proposal))
            return Next("c:ret", {"d": frame.proposal if resp is BOTTOM else resp})
        if frame.pc == "c:ret":
            return Ret(frame.loc("d"))
        raise AssertionError("cas-rc: unreachable pc %r" % frame.pc)


class TasCons2Machine(Machine):
    """Announce in A[i]; the TAS winner's value is the decision.

    Conventional (crash-oblivious) two-process consensus.  Correct only
    in crash-free executions; fig1/fig2 wrap it so that no process ever
    re-enters it after a crash.
    """

    program_id = "tas-cons2"
    inner = InnerCons("tas", "t:", "t:ret")
    entry = inner.entry
    params = ()

    def __init__(self):
        super().__init__(2)

    def init_locals(self, pid, proposal):
        return {"d": UNINIT}

    def layout(self):
        return self.inner.layout("")

    def bound(self):
        return self.inner.steps + 1

    def step(self, frame, access):
        if frame.pc == "t:ret":
            return Ret(frame.loc("d"))
        return self.inner.step(frame, access, "", frame.proposal)


# program -> its machine class
MACHINES = {cls.program_id: cls for cls in
            (Fig1Machine, Fig2Machine, Fig3Machine, CasRcMachine, TasCons2Machine)}


def build_machine(config):
    """The machine for a configuration that `ExperimentConfig.validate`
    accepted; the machines themselves check no parameter."""
    cls = MACHINES[config.program]
    return cls(**{key: getattr(config, key) for key in cls.params})
