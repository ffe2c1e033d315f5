"""The MPEG-2 codec SoC case study (paper §5, last paragraph).

The paper validates its model on "a video MPEG-2 compressing and
decompressing SoC ... composed of 18 tasks implemented on six
processors, three of them software processors with a RTOS model".  The
original application is proprietary, so this module builds the closest
synthetic equivalent that exercises the same code paths:

* **18 tasks**: 13 software tasks on three RTOS processors (a RISC
  control CPU and two DSPs) plus 5 hardware functions on three hardware
  blocks (camera, display, bitstream engine);
* a full encode -> transmit -> decode pipeline over bounded message
  queues, a shared variable (the quantizer level, written by rate
  control and read by the quantizer under mutual exclusion), periodic
  control tasks, and per-frame compute budgets that follow published
  MPEG-2 stage complexity ratios with an I/P/B group-of-pictures
  pattern.

Architecture::

    CameraIn(HW) > q_raw > Preprocess > MotionEst > Dct > Quant > Vlc
        [DSP_enc: 5 tasks]                                  |
    Vlc > q_vlc > Mux > q_tx > BitstreamTx(HW) > q_channel >
        BitstreamRx(HW) > q_rx > Demux > q_vld >
        [CTRL_cpu: SysControl, RateControl, Mux, Demux]
    Vld > InvQuant > Idct > MotionComp > q_disp > DisplayOut(HW)
        [DSP_dec: 4 tasks]

The class records per-frame encode, decode and end-to-end latencies and
per-processor statistics -- everything the paper's DSE sweep reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kernel.time import MS, Time, US, format_time
from ..mcse.model import System

#: Default frame period: 30 fps.
FRAME_PERIOD = 33_333 * US

#: Group-of-pictures pattern cycled over the frame index.
GOP_PATTERN = "IBBPBBPBB"

#: Per-stage base compute budgets in microseconds, per frame type.
#: Ratios follow the usual MPEG-2 complexity split (motion estimation
#: dominates encode; IDCT + motion compensation dominate decode).
STAGE_BUDGETS_US: Dict[str, Dict[str, int]] = {
    "Preprocess": {"I": 2000, "P": 2000, "B": 2000},
    "MotionEst": {"I": 1000, "P": 9000, "B": 11000},
    "Dct": {"I": 3400, "P": 3000, "B": 2800},
    "Quant": {"I": 1400, "P": 1200, "B": 1100},
    "Vlc": {"I": 3500, "P": 2500, "B": 2200},
    "Mux": {"I": 500, "P": 400, "B": 400},
    "Demux": {"I": 500, "P": 400, "B": 400},
    "Vld": {"I": 3000, "P": 2200, "B": 2000},
    "InvQuant": {"I": 1100, "P": 1000, "B": 950},
    "Idct": {"I": 3400, "P": 3200, "B": 3000},
    "MotionComp": {"I": 500, "P": 3800, "B": 4300},
    "RateControl": {"I": 400, "P": 300, "B": 300},
}

#: Transmission latency per packet on the bitstream engine.
CHANNEL_LATENCY = 500 * US


@dataclass
class FrameStats:
    """Timestamps gathered while one frame flows through the SoC."""

    index: int
    frame_type: str
    captured: Time
    encoded: Optional[Time] = None
    received: Optional[Time] = None
    displayed: Optional[Time] = None

    @property
    def encode_latency(self) -> Optional[Time]:
        if self.encoded is None:
            return None
        return self.encoded - self.captured

    @property
    def decode_latency(self) -> Optional[Time]:
        if self.displayed is None or self.received is None:
            return None
        return self.displayed - self.received

    @property
    def end_to_end(self) -> Optional[Time]:
        if self.displayed is None:
            return None
        return self.displayed - self.captured


class Mpeg2Soc:
    """The synthetic MPEG-2 codec system-on-chip model."""

    def __init__(
        self,
        *,
        engine: str = "procedural",
        frames: int = 12,
        frame_period: Time = FRAME_PERIOD,
        scheduling_duration: Time = 5 * US,
        context_load_duration: Time = 5 * US,
        context_save_duration: Time = 5 * US,
        policy: str = "priority_preemptive",
        seed: int = 0,
        queue_capacity: int = 3,
        use_bus: bool = False,
        bus_setup: Time = 100 * US,
        bus_per_byte: Time = 0,
        **policy_kwargs,
    ) -> None:
        self.frames = frames
        self.frame_period = frame_period
        self._rng = random.Random(seed)
        self.frame_stats: List[FrameStats] = [
            FrameStats(
                index=i,
                frame_type=GOP_PATTERN[i % len(GOP_PATTERN)],
                captured=0,
            )
            for i in range(frames)
        ]
        # per-frame, per-stage jittered budgets (deterministic for a seed)
        self._budgets: Dict[str, List[Time]] = {}
        for stage, by_type in STAGE_BUDGETS_US.items():
            self._budgets[stage] = [
                round(
                    by_type[self.frame_stats[i].frame_type]
                    * (0.85 + 0.3 * self._rng.random())
                )
                * US
                for i in range(frames)
            ]

        self.system = System("mpeg2_soc")
        overheads = dict(
            scheduling_duration=scheduling_duration,
            context_load_duration=context_load_duration,
            context_save_duration=context_save_duration,
        )
        self.cpu_ctrl = self.system.processor(
            "CTRL_cpu", engine=engine, policy=policy, **overheads,
            **policy_kwargs,
        )
        self.dsp_enc = self.system.processor(
            "DSP_enc", engine=engine, policy=policy, **overheads,
            **policy_kwargs,
        )
        self.dsp_dec = self.system.processor(
            "DSP_dec", engine=engine, policy=policy, **overheads,
            **policy_kwargs,
        )
        self.use_bus = use_bus
        self.bus = None
        if use_bus:
            from ..comm.bus import Bus

            self.bus = Bus(self.system.sim, "soc_bus", setup=bus_setup,
                           per_byte=bus_per_byte, arbitration="priority")
        self._build_relations(queue_capacity)
        self._build_tasks()

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def _build_relations(self, capacity: int) -> None:
        system = self.system
        chain = [
            "q_raw", "q_pre", "q_me", "q_dct", "q_q", "q_vlc",
            "q_tx", "q_channel", "q_rx", "q_vld", "q_iq", "q_idct",
            "q_mc", "q_disp",
        ]
        self.queues = {}
        for name in chain:
            if name == "q_channel" and self.bus is not None:
                # the encoded bitstream crosses the shared SoC bus
                from ..comm.remote import RemoteQueue

                queue = RemoteQueue(
                    system.sim, name, capacity=capacity, bus=self.bus,
                    message_size=1500, transfer_priority=1,
                )
                system.relations[name] = queue
                self.queues[name] = queue
            else:
                self.queues[name] = system.queue(name, capacity=capacity)
        self.q_sizes = system.queue("q_sizes", capacity=None)
        self.quant_level = system.shared("QuantLevel", initial=8)

    def _stage(self, name: str, source: Optional[str], sink: Optional[str],
               *, timestamp: Optional[str] = None):
        """Build a pipeline-stage behavior: read, compute, write."""
        budgets = self._budgets.get(name)
        queues = self.queues

        def body(fn):
            for i in range(self.frames):
                if source is not None:
                    frame = yield from fn.read(queues[source])
                else:
                    frame = i
                if budgets is not None:
                    yield from fn.execute(budgets[i])
                if name == "Quant":
                    # quantizer level under mutual exclusion
                    yield from fn.read_shared(self.quant_level)
                if name == "Vlc":
                    size = self._budgets["Vlc"][i] // US
                    yield from fn.write(self.q_sizes, (i, size))
                if timestamp is not None:
                    setattr(self.frame_stats[frame], timestamp,
                            self.system.now)
                if sink is not None:
                    yield from fn.write(queues[sink], frame)

        return body

    def _build_tasks(self) -> None:
        system = self.system
        queues = self.queues
        stats = self.frame_stats
        period = self.frame_period
        frames = self.frames

        # ---------------- hardware functions (3 HW blocks) -------------
        def camera(fn):
            for i in range(frames):
                stats[i].captured = system.now
                yield from fn.write(queues["q_raw"], i)
                yield from fn.delay(period)

        def display(fn):
            for _ in range(frames):
                frame = yield from fn.read(queues["q_disp"])
                stats[frame].displayed = system.now

        use_bus = self.bus is not None

        def bitstream_tx(fn):
            for _ in range(frames):
                frame = yield from fn.read(queues["q_tx"])
                if not use_bus:
                    # fixed point-to-point link latency
                    yield from fn.delay(CHANNEL_LATENCY)
                # with a bus, the write itself posts an arbitrated
                # transfer; contention shows up in the frame latency
                yield from fn.write(queues["q_channel"], frame)

        def bitstream_rx(fn):
            for _ in range(frames):
                frame = yield from fn.read(queues["q_channel"])
                stats[frame].received = system.now
                yield from fn.write(queues["q_rx"], frame)

        def audio_path(fn):
            # independent periodic hardware activity
            for _ in range(frames * 4):
                yield from fn.delay(period // 4)

        system.function("CameraIn", camera)
        system.function("DisplayOut", display)
        system.function("BitstreamTx", bitstream_tx)
        system.function("BitstreamRx", bitstream_rx)
        system.function("AudioPath", audio_path)

        # ---------------- encoder DSP (5 tasks) ------------------------
        enc = [
            ("Preprocess", "q_raw", "q_pre", 1),
            ("MotionEst", "q_pre", "q_me", 2),
            ("Dct", "q_me", "q_dct", 3),
            ("Quant", "q_dct", "q_q", 4),
            ("Vlc", "q_q", "q_vlc", 5),
        ]
        for name, source, sink, priority in enc:
            fn = system.function(name, self._stage(name, source, sink),
                                 priority=priority)
            self.dsp_enc.map(fn)

        # ---------------- decoder DSP (4 tasks) ------------------------
        dec = [
            ("Vld", "q_vld", "q_iq", 1),
            ("InvQuant", "q_iq", "q_idct", 2),
            ("Idct", "q_idct", "q_mc", 3),
            ("MotionComp", "q_mc", "q_disp", 4),
        ]
        for name, source, sink, priority in dec:
            fn = system.function(name, self._stage(name, source, sink),
                                 priority=priority)
            self.dsp_dec.map(fn)

        # ---------------- control CPU (4 tasks) ------------------------
        mux = system.function(
            "Mux",
            self._stage("Mux", "q_vlc", "q_tx", timestamp="encoded"),
            priority=5,
        )
        demux = system.function(
            "Demux", self._stage("Demux", "q_rx", "q_vld"), priority=6
        )

        def rate_control(fn):
            for i in range(frames):
                frame, size = yield from fn.read(self.q_sizes)
                yield from fn.execute(self._budgets["RateControl"][i])
                # feedback: nudge the quantizer level under the lock
                level = yield from fn.read_shared(self.quant_level)
                target = 2500
                new_level = max(1, min(31, level + (1 if size > target else -1)))
                yield from fn.write_shared(self.quant_level, new_level)

        def sys_control(fn):
            # highest-priority periodic supervision: 200us every 10ms
            ticks = frames * period // (10 * MS) + 1
            for _ in range(int(ticks)):
                yield from fn.execute(200 * US)
                yield from fn.delay(10 * MS)

        rate = system.function("RateControl", rate_control, priority=3)
        supervisor = system.function("SysControl", sys_control, priority=10)
        for fn in (mux, demux, rate, supervisor):
            self.cpu_ctrl.map(fn)

    # ------------------------------------------------------------------
    # Execution & reporting
    # ------------------------------------------------------------------
    @property
    def task_count(self) -> int:
        return len(self.system.functions)

    @property
    def processors(self):
        return list(self.system.processors.values())

    def run(self, timeout_factor: Optional[int] = None) -> None:
        """Run the whole clip (every behavior loop is finite).

        Pass ``timeout_factor`` to bound a run that might starve (e.g.
        when experimenting with tiny queue capacities): the simulation
        then stops at ``frames * frame_period * timeout_factor``.
        """
        if timeout_factor is None:
            self.system.run()
        else:
            self.system.run(
                until=self.frame_period * self.frames * timeout_factor
            )

    def completed_frames(self) -> int:
        return sum(1 for f in self.frame_stats if f.displayed is not None)

    def latencies(self, kind: str = "end_to_end") -> List[Time]:
        values = [getattr(f, kind) for f in self.frame_stats]
        return [v for v in values if v is not None]

    def throughput_fps(self) -> float:
        done = [f.displayed for f in self.frame_stats if f.displayed]
        if len(done) < 2:
            return 0.0
        span = max(done) - min(done)
        return (len(done) - 1) / (span / 1e15) if span else 0.0

    def summary(self) -> Dict:
        """The DSE-level report: latencies, throughput, utilizations."""
        e2e = self.latencies("end_to_end")
        return {
            "tasks": self.task_count,
            "frames_completed": self.completed_frames(),
            "mean_e2e_latency": sum(e2e) // len(e2e) if e2e else None,
            "max_e2e_latency": max(e2e) if e2e else None,
            "throughput_fps": self.throughput_fps(),
            "processors": {
                cpu.name: cpu.stats() for cpu in self.processors
            },
        }

    def format_summary(self) -> str:
        info = self.summary()
        lines = [
            f"MPEG-2 SoC: {info['tasks']} tasks, "
            f"{info['frames_completed']}/{self.frames} frames",
            f"  mean end-to-end latency: "
            f"{format_time(info['mean_e2e_latency'] or 0)}",
            f"  max  end-to-end latency: "
            f"{format_time(info['max_e2e_latency'] or 0)}",
            f"  throughput: {info['throughput_fps']:.2f} fps",
        ]
        for name, stats in info["processors"].items():
            lines.append(
                f"  {name}: util {stats['utilization']:.2%}, "
                f"{stats['dispatches']} dispatches, "
                f"{stats['preemptions']} preemptions"
            )
        return "\n".join(lines)
