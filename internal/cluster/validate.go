package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/verify"
)

// Upload validation: the trust boundary between the coordinator and
// its workers. A worker is a remote process on an untrusted network —
// its upload may be truncated, bit-flipped in transit, or outright
// fabricated. Nothing a worker sends is stored until it passes the
// checks here; a rejected upload requeues the job and counts against
// the uploader's reputation.
//
// Three tiers:
//
//   - The checksum (always on, first): the bytes hash to the SHA-256
//     the worker sent with them, so bytes that changed in flight are
//     refused before anything decodes them.
//
//   - Structural invariants (always on, cheap): the payload decodes as
//     an api.Result; the echoed spec re-derives the job's content
//     address against the job's own netlist (so results cannot be
//     cross-wired between jobs or specs); the degraded flag matches
//     the payload (a lie would poison the cache with budget-dependent
//     bytes); when the spec asked for the solution geometry, it is
//     present, decodes, and an independent recount of its wirelength
//     and via count (verify.Metrics — no code shared with the router)
//     matches the claimed Row.
//
//   - Full re-verification (-verify-uploads): the from-scratch
//     internal/verify checker re-validates the uploaded geometry —
//     connectivity, SADP turn legality, via-layer manufacturability —
//     exactly as PR 3's independent checker would for a local run.
//     Costlier (it re-colors via layers), so it is a knob, but still
//     far cheaper than re-routing the job.

// Rejection reason classes, the label values of
// cluster_upload_rejects_total{reason}.
const (
	rejectChecksum        = "checksum"
	rejectDecode          = "decode"
	rejectSpecEcho        = "spec-echo"
	rejectContentAddress  = "content-address"
	rejectDegradedFlag    = "degraded-flag"
	rejectSolutionMissing = "solution-missing"
	rejectSolutionDecode  = "solution-decode"
	rejectMetricRecount   = "metric-recount"
	rejectVerify          = "verify"
)

// validateUpload checks one successful upload's Result bytes against
// the job they claim to decide. It returns ("", nil) when the payload
// is acceptable, or a reason class plus a detail error.
func validateUpload(a *service.Assignment, req *ResultRequest, verifyFull bool) (string, error) {
	if sum := checksum(req.Result); sum != req.Checksum {
		return rejectChecksum, fmt.Errorf("result bytes hash to %.12s, upload claims %.12s", sum, req.Checksum)
	}
	var res api.Result
	if err := json.Unmarshal(req.Result, &res); err != nil {
		return rejectDecode, fmt.Errorf("result payload does not decode: %w", err)
	}

	// The echoed spec, hashed with this job's netlist, must re-derive
	// the job's content address. This subsumes a field-by-field spec
	// comparison and additionally catches a worker echoing the right
	// spec for the wrong input.
	key, err := service.ContentAddress(a.Netlist, res.Spec)
	if err != nil {
		return rejectSpecEcho, fmt.Errorf("echoed spec does not canonicalize: %w", err)
	}
	if key != a.Key {
		return rejectContentAddress, fmt.Errorf("echoed spec re-derives %s, job is %s", key[:12], a.Key[:12])
	}

	if req.Degraded != (len(res.Degraded) > 0) {
		return rejectDegradedFlag, fmt.Errorf("degraded flag %v but payload lists %d degradations", req.Degraded, len(res.Degraded))
	}

	if !res.Spec.IncludeSolution {
		// No geometry to recount; the structural tier ends here.
		return "", nil
	}
	if len(res.Solution) == 0 {
		return rejectSolutionMissing, fmt.Errorf("spec requested the solution payload but none was uploaded")
	}
	var routes []*grid.Route
	if err := json.Unmarshal(res.Solution, &routes); err != nil {
		return rejectSolutionDecode, fmt.Errorf("solution payload does not decode: %w", err)
	}
	wl, vias := verify.Metrics(routes)
	if wl != int(res.Row.WL) || vias != int(res.Row.Vias) {
		return rejectMetricRecount, fmt.Errorf("recount wl=%d vias=%d, claimed wl=%d vias=%d", wl, vias, res.Row.WL, res.Row.Vias)
	}

	if !verifyFull {
		return "", nil
	}
	nl, err := netlist.Read(strings.NewReader(a.Netlist))
	if err != nil {
		// The job was accepted with this netlist, so this is a
		// coordinator-side inconsistency, not the worker's fault; let
		// the upload through rather than requeue forever.
		return "", nil
	}
	rep := verify.Routing(nl, routes, verify.Options{
		SADP: res.Spec.Scheme,
		// A degraded TPL phase may legitimately leave FVPs; every other
		// upload, a timed-out ILP included, meets the full
		// manufacturability bar.
		CheckTPL: res.Spec.ConsiderTPL && res.RemainingFVPs == 0 && !slices.Contains(res.Degraded, "tpl-rr-timeout"),
	})
	if !rep.Ok() {
		return rejectVerify, fmt.Errorf("independent re-check failed: %v", rep.Err())
	}
	return "", nil
}
