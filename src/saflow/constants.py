"""Default hyperparameters for the baseline solvers.

These are the published defaults of the respective methods; they are kept
in one place so benchmark tables are reproducible.  The smoothed-amplitude
solver takes its step size from the run configuration instead.

WF   intensity-flow gradient (|w|^2 - y^2) w a, warmup step
     mu_k = min(1 - exp(-k/WF_K0), WF_MU_MAX) / ||z0||^2.
TAF  amplitude-flow gradient restricted to measurements with
     |w_i| >= y_i / (1 + TAF_GAMMA), fixed step TAF_MU.
TWF  intensity gradient 2 (|w|^2 - y^2) w / |w|^2, restricted to
     TWF_ALPHA_LB <= |w_i|/||z|| <= TWF_ALPHA_UB and
     ||w_i|^2 - y_i^2| <= TWF_ALPHA_H * K * |w_i| / ||z||
     with K = mean_j ||w_j|^2 - y_j^2|, fixed step TWF_MU.
"""

WF_K0 = 330.0
WF_MU_MAX = 0.2

TAF_GAMMA = 0.7
TAF_MU = 0.6

TWF_ALPHA_LB = 0.3
TWF_ALPHA_UB = 5.0
TWF_ALPHA_H = 5.0
TWF_MU = 0.2
