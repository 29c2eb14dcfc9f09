# Every training objective on one small batch, each gradient verified on the
# spot against central finite differences.

import numpy as np

from relkd import (
    AdaptiveTauConfig,
    HiddenPair,
    LossWeights,
    ReliabilityConfig,
    TokenBatch,
    adaptive_tau,
    ce_loss,
    compute_anchor,
    cpdp_loss,
    ewad_loss,
    inter_match_loss,
    kd_loss,
    softmax_t,
    standard_total,
)

rng = np.random.default_rng(0)
T, V = 5, 6
gold = rng.integers(0, V, T)
mask = np.array([True, True, True, True, False])  # final position is padding
z_s = 1.5 * rng.standard_normal((T, V))
z_t1 = 1.5 * rng.standard_normal((T, V))
z_t2 = 1.5 * rng.standard_normal((T, V))
batch = TokenBatch(gold, mask, z_s, teacher1_logits=z_t1, teacher2_logits=z_t2)
rcfg = ReliabilityConfig()


def fd_check(name, grad, value_fn, h=1e-6):
    num = np.zeros_like(z_s)
    for i in np.ndindex(z_s.shape):
        zp, zm = z_s.copy(), z_s.copy()
        zp[i] += h
        zm[i] -= h
        num[i] = (value_fn(zp) - value_fn(zm)) / (2 * h)
    err = np.abs(grad - num).max() / max(1.0, np.abs(grad).max())
    print(f"  {name:<22} gradient vs finite differences: rel err {err:.2e}")


def rebuild(z):
    return TokenBatch(gold, mask, z, teacher1_logits=z_t1, teacher2_logits=z_t2)


print("== gold cross-entropy ==")
v, g = ce_loss(batch)
print(f"  value {v:.4f}")
fd_check("ce", g, lambda z: ce_loss(rebuild(z))[0])

print("== logit distillation (tau=0.8, tau^2-scaled) ==")
v, g = kd_loss(batch, 0.8)
print(f"  value {v:.4f}")
fd_check("kd", g, lambda z: kd_loss(rebuild(z), 0.8)[0])

print("== hidden-state match through a learned projection ==")
hp = HiddenPair(rng.standard_normal((T, 3)), rng.standard_normal((T, 4)),
                rng.standard_normal((3, 4)))
v, gh, gw = inter_match_loss(hp, mask)
print(f"  value {v:.4f} (0 when projected student is parallel to teacher)")

print("== composite baseline: 0.89*CE + 0.01*KD + 0.10*Inter ==")
w = LossWeights(alpha_kd=0.01, alpha_inter=0.1)
v, grads = standard_total(batch, hp, w, 0.8)
print(f"  value {v:.4f}, components {grads.components}")

print("== reliability-gated routing (dual teacher) ==")
v, g, tr = ewad_loss(batch, rcfg, 1.0)
print(f"  value {v:.4f}; per-token gates {np.round(tr.gate, 3)}")
fd_check("gated routing", g, lambda z: ewad_loss(rebuild(z), rcfg, 1.0)[0])

print("== divergence-gap regularizer (entropy detached) ==")
calib1 = softmax_t(rng.standard_normal((64, V)), 1.0)
calib2 = softmax_t(rng.standard_normal((64, V)), 1.0)
anchor = compute_anchor(calib1, calib2)
print(f"  anchor Delta* = {anchor.delta_star:.4f} (inter-teacher KL, held fixed)")
v, g, ctr = cpdp_loss(batch, anchor, w)
print(f"  value {v:.4f}; clamped tokens: {int(ctr.clamped.sum())}")

print("== combined objective ==")
v = ewad_loss(batch, rcfg, 1.0)[0] + w.mu * cpdp_loss(batch, anchor, w)[0]
print(f"  value {v:.4f} (gated routing + mu * regularizer)")

print("== per-sample adaptive temperature ==")
cfg = AdaptiveTauConfig()
dists = softmax_t(z_t1, 1.0)
for h_batch in (0.5, 1.0, 1.5):
    tau = adaptive_tau(dists, mask, h_batch, cfg)
    print(f"  batch-mean entropy {h_batch:.1f} -> tau {tau:.4f}")
print("confident samples (entropy below the batch mean) get sharper supervision.")
