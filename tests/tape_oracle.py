"""The gated DeepONet and its two losses recorded on `gridonet.tensor`'s tape,
the oracle of the explicit forward and backward in `mlp` and `deeponet`.

Each op is created in the order the package's pass runs it, so the tape's
gradients are the bytes that pass must reproduce. Inputs given as Tensors
(or arrays) run the same ops; parameters watched on a tape are tracked.
"""

from gridonet import tensor as T
from gridonet.deeponet import LOG_2PI, LOGSIG_HI, LOGSIG_LO


def hidden(params, x, cfg, prefix=""):
    """Gated recurrence up to H^(d+1), on the tape."""

    def lin(v, stem):
        return T.add_bias(T.matmul(v, params[f"{prefix}{stem}_w"]), params[f"{prefix}{stem}_b"])

    u = T.sin(lin(x, "u"))
    v = T.sin(lin(x, "v"))
    h = x
    for l in range(1, cfg.depth + 1):
        z = T.sin(lin(h, f"z{l}"))
        h = (1.0 - z) * u + z * v
    return h


def head(params, h, prefix="", stem="out"):
    return T.add_bias(T.matmul(h, params[f"{prefix}{stem}_w"]), params[f"{prefix}{stem}_b"])


def forward_batch(params, cfg, U, Y):
    """(mu, clamped log_sigma or None) as (B, 1) Tensors, row i of U with row
    i of Y."""
    heads = ((("out", "tau_o"),) if "tau_o" in params
             else (("mu", "tau_o_mu"), ("ls", "tau_o_ls")))
    bh = hidden(params, U, cfg.branch, "b_")
    th = hidden(params, Y, cfg.trunk, "t_")
    out = [T.sum_rows(head(params, bh, "b_", stem) * head(params, th, "t_", stem)) + params[tau]
           for stem, tau in heads]
    return out[0], (T.clip(out[1], LOGSIG_LO, LOGSIG_HI) if len(out) == 2 else None)


def watch_all(params):
    tape = T.Tape()
    return tape, {k: tape.watch(k, v) for k, v in params.items()}


def loss_graph(tracked, cfg, U, Y, G, coef):
    """coef times the summed loss: squared residuals for a vanilla net,
    Gaussian NLL for a prob net (1/B gives the batch mean)."""
    mu, ls = forward_batch(tracked, cfg, T.Tensor(U), T.Tensor(Y))
    r = mu - T.Tensor(G)
    if ls is None:
        return T.sum_all(T.square(r)) * coef
    # 0.5 r^2 / sigma^2 + 0.5 log(2 pi sigma^2), with sigma = exp(ls)
    point = T.square(r) * T.exp(ls * -2.0) * 0.5 + ls + 0.5 * LOG_2PI
    return T.sum_all(point) * coef


def loss_and_grads(params, cfg, U, Y, G, coef=None):
    """The loss (the batch mean unless coef is given) and its gradients by
    name, from the tape."""
    tape, tracked = watch_all(params)
    loss = loss_graph(tracked, cfg, U, Y, G, 1.0 / len(G) if coef is None else coef)
    return loss.item(), tape.backward(loss)

