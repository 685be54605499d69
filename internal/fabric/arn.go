package fabric

import (
	"fmt"
	"strconv"
	"strings"
)

// ARNConfig holds the adaptive-routing-notification tunables, read
// only under a steering sideband (PolicyARN). A switch output queue
// crossing HintOnBytes makes the switch broadcast a hint-on control
// message to every upstream neighbor; when the last output queue
// falls back below HintOffBytes the switch broadcasts hint-off.
// Upstream ingress arbiters then prefer interchangeable up ports that
// do not lead into a hinted switch (see steer in ingress.go). The
// on/off hysteresis gap keeps a queue oscillating around a single
// threshold from flooding the links with hint traffic.
type ARNConfig struct {
	// HintOnBytes is the output-queue occupancy that marks the queue
	// congested (default 16 KB).
	HintOnBytes int
	// HintOffBytes is the occupancy below which the queue stops being
	// congested (default 4 KB; must be below HintOnBytes).
	HintOffBytes int
}

// DefaultARNConfig returns the evaluation defaults.
func DefaultARNConfig() ARNConfig {
	return ARNConfig{HintOnBytes: 16 * 1024, HintOffBytes: 4 * 1024}
}

// Validate reports configuration errors.
func (c ARNConfig) Validate() error {
	switch {
	case c.HintOnBytes <= 0:
		return fmt.Errorf("arn: HintOnBytes %d ≤ 0", c.HintOnBytes)
	case c.HintOffBytes <= 0:
		return fmt.Errorf("arn: HintOffBytes %d ≤ 0", c.HintOffBytes)
	case c.HintOffBytes >= c.HintOnBytes:
		return fmt.Errorf("arn: HintOffBytes %d ≥ HintOnBytes %d (hysteresis gap required)", c.HintOffBytes, c.HintOnBytes)
	}
	return nil
}

// String renders the config in the exact form ParseARNSpec accepts.
func (c ARNConfig) String() string {
	return fmt.Sprintf("on=%d,off=%d", c.HintOnBytes, c.HintOffBytes)
}

// ParseARNSpec parses a comma-separated key=value spec ("on=16384,off=4096")
// starting from DefaultARNConfig. Unknown keys and malformed values are
// errors; the result is validated.
func ParseARNSpec(spec string) (ARNConfig, error) {
	c := DefaultARNConfig()
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return c, fmt.Errorf("arn: malformed field %q (want key=value)", field)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return c, fmt.Errorf("arn: %s: bad value %q: %w", key, val, err)
		}
		switch strings.TrimSpace(key) {
		case "on":
			c.HintOnBytes = n
		case "off":
			c.HintOffBytes = n
		default:
			return c, fmt.Errorf("arn: unknown key %q (valid: on, off)", key)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// AlternateRouter is the optional topology capability the arn policy
// needs: a contiguous range of interchangeable up (ascent) ports per
// switch. Ports in the range must be mutually substitutable for any
// ascending packet — forwarding through any of them leaves the
// remainder of the source route valid (the perfect-shuffle MINs have
// this property: an ascent turn only selects which next-level switch
// forwards, and descent turns depend only on the destination; locked by
// TestUpPortsInterchangeable). Topologies without the capability (the
// 2D mesh) simply get no steering — arn degrades to 1Q behavior there.
type AlternateRouter interface {
	// UpPortRange returns the first up port and the number of
	// interchangeable up ports of a switch (n < 2 disables steering:
	// there is no alternative to steer to).
	UpPortRange(sw int) (lo, n int)
}
