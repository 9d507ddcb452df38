"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 12 is a throughput report over a 10M-event
stream and is the slow one (tens of seconds); it gates on completion and
determinism, not on speed.
"""

import math
import time

import numpy as np

from conftest import make_depth_pair, make_random_stream
from evdepth.events import EventStream, read_events, slice_sbt, write_events
from evdepth.fusion import (
    convlstm_step,
    make_model_params,
    run_sequence,
    toy_extractor,
)
from evdepth.imgio import load_depth, save_depth_pfm, write_pgm
from evdepth.losses import loss_reg, loss_si, loss_total, lstsq_align
from evdepth.metrics import evaluate
from evdepth.pipeline import build_manifest, export_stacks, save_manifest, training_step
from evdepth.simulator import IntensityFrame, SimConfig, simulate
from evdepth.stacks import encode_image_like, encode_tencode, encode_voxel

from test_losses import (
    fd_gradient,
    lstsq_oracle,
    max_rel_error,
    reg_kink_exclusion,
)
from test_stacks import image_like_oracle, tencode_oracle, voxel_oracle

MS = 1000


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def _random_slices(n, seed, max_events=10_000, width=32, height=24):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_events = int(rng.integers(0, max_events + 1))
        stream = make_random_stream(rng, width, height, max(n_events, 1), t_max=1_000_000)
        if n_events == 0:
            stream = EventStream.empty(width, height)
        t_d = int(rng.integers(500_000, 1_000_001))
        window = int(rng.integers(1, 1_000_000))
        yield slice_sbt(stream, t_d, window)


def test_c01_encoder_oracle_equivalence():
    start = time.perf_counter()
    worst_voxel = 0.0
    ok = True
    for sl in _random_slices(100, seed=101):
        voxel = encode_voxel(sl, 5).values
        worst_voxel = max(worst_voxel, float(np.abs(voxel - voxel_oracle(sl, 5)).max()))
        ok &= worst_voxel <= 1e-9
        ok &= np.array_equal(encode_tencode(sl).values, tencode_oracle(sl))
        ok &= np.array_equal(encode_image_like(sl).values, image_like_oracle(sl))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(
        1,
        "all three encoders match scalar references on 100 random slices",
        bool(ok),
        f"max voxel dev {worst_voxel:.2e}, {elapsed:.2f}s",
    )


def test_c02_tencode_reconstruction_within_one_microsecond():
    worst = 0.0
    for sl in _random_slices(30, seed=202):
        stack = encode_tencode(sl)
        duration = sl.t_end_us - sl.t_start_us
        last = {}
        for x, y, _, t in zip(sl.xs, sl.ys, sl.ps, sl.ts):
            last[(int(y), int(x))] = int(t)
        for (y, x), t_true in last.items():
            t_rec = sl.t_end_us - stack.values[y, x, 1] * duration
            worst = max(worst, abs(t_rec - t_true))
    _report(
        2,
        "t_d - G*dT recovers the last event timestamp on every lit pixel",
        worst <= 1.0,
        f"max error {worst:.2e} us",
    )


def test_c03_voxel_conservation_and_bin_locality():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(303)
    for sl in _random_slices(50, seed=303):
        stack = encode_voxel(sl, 5)
        dev = abs(stack.values.sum() - sl.ps.sum())
        worst = max(worst, float(dev))
        ok &= dev <= 1e-9
    # locality: single events touch at most two adjacent bins
    for _ in range(200):
        t_d = int(rng.integers(1000, 1_000_000))
        window = int(rng.integers(2, t_d + 1))
        t = int(rng.integers(t_d - window, t_d + 1))
        stream = EventStream(
            8, 8, [int(rng.integers(0, 8))], [int(rng.integers(0, 8))],
            [int(rng.choice([-1, 1]))], [t],
        )
        sl = slice_sbt(stream, t_d, window)
        grid = encode_voxel(sl, 5).values
        lit = np.flatnonzero(grid.sum(axis=(0, 1)))
        ok &= 1 <= len(lit) <= 2 and (len(lit) < 2 or lit[1] == lit[0] + 1)
    _report(3, "voxel total equals polarity sum; events touch <= 2 adjacent bins",
            bool(ok), f"max dev {worst:.2e}")


def test_c04_least_squares_matches_closed_form_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        pred, target, mask = make_depth_pair(rng, (32, 32))
        affine = lstsq_align(pred, target, mask)
        s, t = lstsq_oracle(pred, target, mask)
        worst = max(worst, abs(affine.scale - s), abs(affine.shift - t))
    pred = rng.uniform(1, 5, (32, 32))
    affine = lstsq_align(pred, 2.0 * pred + 3.0)
    recovery = max(abs(affine.scale - 2.0), abs(affine.shift - 3.0))
    ok = worst <= 1e-9 and recovery <= 1e-9
    _report(4, "lstsq matches the normal-equation oracle on 1000 masked instances",
            ok, f"max dev {worst:.2e}, recovery dev {recovery:.2e}")


def test_c05_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    worst_abs = 0.0
    for _ in range(20):
        pred, target, mask = make_depth_pair(rng, (16, 16))
        affine = lstsq_align(pred, target, mask)
        keep = ~reg_kink_exclusion(pred, target, mask, 4, affine)

        si = loss_si(pred, target, mask, affine=affine)
        fd = fd_gradient(lambda p: loss_si(p, target, mask, affine=affine).value, pred)
        worst_rel = max(worst_rel, max_rel_error(si.grad, fd))
        worst_abs = max(worst_abs, float(np.abs(si.grad - fd).max()))

        reg = loss_reg(pred, target, mask, k_scales=4, affine=affine)
        fd = fd_gradient(
            lambda p: loss_reg(p, target, mask, k_scales=4, affine=affine).value, pred
        )
        worst_rel = max(worst_rel, max_rel_error(reg.grad[keep], fd[keep]))
        worst_abs = max(worst_abs, float(np.abs(reg.grad[keep] - fd[keep]).max()))

        _, grad = loss_total(pred, target, mask, lam=0.25, k_scales=4, affine=affine)
        fd = fd_gradient(
            lambda p: loss_total(p, target, mask, lam=0.25, k_scales=4, affine=affine)[0].total,
            pred,
        )
        worst_rel = max(worst_rel, max_rel_error(grad[keep], fd[keep]))
        worst_abs = max(worst_abs, float(np.abs(grad[keep] - fd[keep]).max()))
    _report(5, "analytic gradients of l_si, l_reg, total match central differences",
            worst_rel < 1e-4, f"max rel err {worst_rel:.2e}, max abs dev {worst_abs:.2e}")


def test_c06_affine_invariance_of_loss_and_aligned_metrics():
    rng = np.random.default_rng(606)
    pred, target, mask = make_depth_pair(rng, (16, 16))
    base_report, _ = loss_total(pred, target, mask)
    base_metrics = evaluate(pred, target, mask, align=True)
    ok = True
    worst = 0.0
    for a in (0.5, 2.0, 10.0):
        for b in (-5.0, 0.0, 7.0):
            warped = a * pred + b
            report, _ = loss_total(warped, target, mask)
            rel = abs(report.total - base_report.total) / max(abs(base_report.total), 1e-12)
            worst = max(worst, rel)
            ok &= rel <= 1e-6
            m = evaluate(warped, target, mask, align=True)
            for field in ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log",
                          "delta1", "delta2", "delta3"):
                got, want = getattr(m, field), getattr(base_metrics, field)
                ok &= np.isclose(got, want, rtol=1e-6, atol=1e-9)
    _report(6, "loss and aligned metrics invariant under pred -> a*pred + b",
            bool(ok), f"worst loss rel dev {worst:.2e}")


def test_c07_metric_sanity():
    rng = np.random.default_rng(707)
    gt = rng.uniform(1, 10, (16, 16))
    perfect = evaluate(gt.copy(), gt)
    exact_zero = all(
        getattr(perfect, f) == 0.0 for f in ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log")
    )
    exact_one = all(getattr(perfect, f) == 1.0 for f in ("delta1", "delta2", "delta3"))

    hand = evaluate(np.array([[math.e, math.e]]), np.array([[1.0, math.e]]), align=False)
    hand_ok = abs(hand.si_log - 0.5) <= 1e-12

    chain_ok = True
    for _ in range(100):
        g = rng.uniform(0.5, 20, (8, 8))
        p = g * rng.uniform(0.3, 3.0, (8, 8))
        r = evaluate(p, g, align=False)
        chain_ok &= r.delta1 <= r.delta2 <= r.delta3
    _report(7, "perfect prediction zeros, SI-log hand case 0.5, delta chain ordered",
            exact_zero and exact_one and hand_ok and chain_ok,
            f"si_log dev {abs(hand.si_log - 0.5):.2e}")


def test_c08_simulator_threshold_oracle():
    rng = np.random.default_rng(808)
    c = 0.1
    ok = True
    for _ in range(10):
        deltas = rng.uniform(-0.95, 0.95, (6, 7))
        # keep |delta|/C away from integer boundaries
        near = np.abs(np.abs(deltas / c) - np.round(np.abs(deltas / c))) < 1e-3
        deltas = np.where(near, deltas + 0.004, deltas)
        base = rng.uniform(-0.5, 0.5)
        frames = [
            IntensityFrame(0, np.exp(np.full((6, 7), base))),
            IntensityFrame(1000, np.exp(base + deltas)),
        ]
        stream = simulate(frames, SimConfig(c))
        counts = np.zeros((6, 7), dtype=int)
        np.add.at(counts, (stream.ys, stream.xs), 1)
        expected = np.floor(np.abs(deltas) / c).astype(int)
        ok &= np.array_equal(counts, expected)
        if len(stream):
            ok &= bool(stream.ts.min() >= 0 and stream.ts.max() <= 1000)
        # ramp reversal flips every polarity with identical (t, pixel) records;
        # tie order between the polarity groups is not part of the contract
        rev = simulate(
            [IntensityFrame(0, np.exp(np.full((6, 7), base))),
             IntensityFrame(1000, np.exp(base - deltas))],
            SimConfig(c),
        )

        def canonical(s, flip):
            order = np.lexsort((s.xs, s.ys, s.ts))
            ps = -s.ps if flip else s.ps
            return [
                (int(s.ts[i]), int(s.ys[i]), int(s.xs[i]), int(ps[i])) for i in order
            ]

        ok &= canonical(stream, False) == canonical(rev, True)
    _report(8, "event counts equal floor(|dlogI|/C); reversal flips polarity; "
               "timestamps in-interval", bool(ok))


def test_c09_recurrent_mechanism():
    # scalar ConvLSTM against a hand-evaluated step
    kernel = np.zeros((3, 3, 2, 4))
    kernel[1, 1, 0] = [0.2, -0.5, 0.7, 1.1]
    kernel[1, 1, 1] = [0.4, 0.3, -0.6, 0.25]
    bias = np.array([0.1, 1.0, -0.2, 0.05])
    f_in, h_in, c_in = 0.8, -0.3, 0.5

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    pre = [kernel[1, 1, 0, k] * f_in + kernel[1, 1, 1, k] * h_in + bias[k] for k in range(4)]
    c_hand = sig(pre[1]) * c_in + sig(pre[0]) * math.tanh(pre[3])
    h_hand = sig(pre[2]) * math.tanh(c_hand)
    h_out, c_out = convlstm_step(
        np.full((1, 1, 1), f_in), np.full((1, 1, 1), h_in), np.full((1, 1, 1), c_in),
        kernel, bias,
    )
    scalar_ok = abs(h_out[0, 0, 0] - h_hand) <= 1e-12 and abs(c_out[0, 0, 0] - c_hand) <= 1e-12

    # hidden values strictly inside (-1, 1) over 100 steps
    rng = np.random.default_rng(909)
    ch = 4
    k = rng.standard_normal((3, 3, 2 * ch, 4 * ch))
    b = rng.standard_normal(4 * ch) * 2
    h = np.zeros((6, 6, ch))
    cc = np.zeros((6, 6, ch))
    bound_ok = True
    for _ in range(100):
        h, cc = convlstm_step(rng.standard_normal((6, 6, ch)) * 5, h, cc, k, b)
        bound_ok &= bool((np.abs(h) < 1.0).all())

    # state dependence and a deterministic 20-step desk-scale run
    params = make_model_params(seed=7)
    extractor = lambda a: toy_extractor(a, seed=7)
    stack_a = rng.standard_normal((64, 64, 3))
    stack_b = rng.standard_normal((64, 64, 3))
    ab = run_sequence([stack_a, stack_b], extractor, params)
    ba = run_sequence([stack_b, stack_a], extractor, params)
    state_ok = not np.allclose(ab[1], ba[1])

    stacks = [rng.standard_normal((64, 64, 3)) for _ in range(20)]
    run1 = run_sequence(stacks, extractor, params)
    run2 = run_sequence(stacks, extractor, params)
    run_ok = (
        len(run1) == 20
        and all(o.shape == (16, 16) for o in run1)
        and all(np.array_equal(x, y) for x, y in zip(run1, run2))
    )
    _report(9, "ConvLSTM hand case, (-1,1) hidden bound, state dependence, "
               "deterministic 20-step run", scalar_ok and bound_ok and state_ok and run_ok)


def test_c10_pipeline_integrity(tmp_path):
    rng = np.random.default_rng(1010)
    stream = make_random_stream(rng, width=32, height=24, n_events=5000, t_max=200 * MS)
    events = tmp_path / "ev.evb"
    write_events(stream, events)
    frames = tmp_path / "frames"
    proxies = tmp_path / "proxy"
    gts = tmp_path / "gt"
    for d in (frames, proxies, gts):
        d.mkdir()
    times = [30, 80, 120, 190]
    rng.shuffle(times)  # create files in scrambled order
    for t_ms in times:
        stem = f"{t_ms * MS:09d}"
        write_pgm(frames / f"{stem}.pgm", rng.integers(0, 256, (24, 32)).astype(np.uint8))
        save_depth_pfm(proxies / f"{stem}.pfm", rng.uniform(1, 10, (24, 32)))
        save_depth_pfm(gts / f"{stem}.pfm", rng.uniform(1, 10, (24, 32)))

    m1 = build_manifest(events, frames, proxies, gt_dir=gts, window_us=50 * MS)
    m2 = build_manifest(events, frames, proxies, gt_dir=gts, window_us=50 * MS)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_manifest(m1, p1)
    save_manifest(m2, p2)
    deterministic = m1 == m2 and p1.read_bytes() == p2.read_bytes()
    ordered = [r.t_d_us for r in m1.records] == sorted(r.t_d_us for r in m1.records)
    aligned = all(r.t_end_us == r.t_d_us for r in m1.records)

    record = m1.records[0]
    proxy = load_depth(record.proxy_path)
    step = training_step(record, proxy)
    zero_ok = step.total == 0.0 and not step.grad.any()

    pred = rng.uniform(1, 10, (24, 32))
    additive = training_step(record, pred, mode="combined")
    parts = (
        training_step(record, pred, mode="proxy").total
        + training_step(record, pred, mode="gt").total
    )
    additive_ok = additive.total == parts
    _report(10, "manifest deterministic and ordered; zero loss at pred == proxy; "
                "combined supervision additive",
            deterministic and ordered and aligned and zero_ok and additive_ok)


def test_c11_format_round_trips(tmp_path):
    rng = np.random.default_rng(1111)
    stream = make_random_stream(rng, width=320, height=240, n_events=1_000_000,
                                t_max=60_000_000)
    evb, csvp = tmp_path / "m.evb", tmp_path / "m.csv"
    write_events(stream, evb)
    write_events(stream, csvp)
    evb_ok = read_events(evb) == stream
    csv_ok = read_events(csvp) == stream

    depth = rng.uniform(0.1, 80.0, (120, 160)).astype(np.float32).astype(np.float64)
    dp = tmp_path / "d.pfm"
    save_depth_pfm(dp, depth)
    pfm_ok = np.array_equal(load_depth(dp), depth)

    frames = tmp_path / "frames"
    proxies = tmp_path / "proxy"
    frames.mkdir()
    proxies.mkdir()
    small = make_random_stream(rng, width=32, height=24, n_events=3000, t_max=200 * MS)
    sev = tmp_path / "s.evb"
    write_events(small, sev)
    for t_ms in (60, 120, 180):
        stem = f"{t_ms * MS:09d}"
        write_pgm(frames / f"{stem}.pgm", np.zeros((24, 32), dtype=np.uint8))
        save_depth_pfm(proxies / f"{stem}.pfm", rng.uniform(1, 10, (24, 32)))
    manifest = build_manifest(sev, frames, proxies)
    out = tmp_path / "stacks"
    first = {p.name: p.read_bytes() for p in export_stacks(manifest, out)}
    second = {p.name: p.read_bytes() for p in export_stacks(manifest, out)}
    export_ok = first == second and len(first) == 3
    _report(11, "1M-event EVB/CSV round trips bit-exact; PFM exact; export idempotent",
            evb_ok and csv_ok and pfm_ok and export_ok)


def test_c12_bench_ten_million_events(tmp_path, capsys):
    rng = np.random.default_rng(1212)
    n = 10_000_000
    ts = np.sort(rng.integers(0, 600_000_000, size=n))
    stream = EventStream(
        346, 260,
        rng.integers(0, 346, size=n),
        rng.integers(0, 260, size=n),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        ts,
    )
    path = tmp_path / "big.evb"
    write_events(stream, path)

    from evdepth.cli import main

    out = tmp_path / "bench.json"
    code = main(["bench", "--events", str(path), "--repetitions", "1", "--out", str(out)])
    printed = capsys.readouterr().out
    import json

    payload = json.loads(out.read_text())
    rates = {layout: payload["layouts"][layout]["events_per_s"] for layout in payload["layouts"]}
    ok = code == 0 and set(rates) == {"voxel", "imagelike", "tencode"} and all(
        r > 0 for r in rates.values()
    )
    detail = ", ".join(f"{k} {v / 1e6:.1f}M ev/s" for k, v in rates.items())
    print(printed, end="")
    _report(12, "bench encodes a 10M-event stream in all three layouts (non-gating report)",
            ok, detail)
