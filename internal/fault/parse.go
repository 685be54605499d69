package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ParsePlan builds a Plan from a compact comma-separated spec, the
// format behind the `recnsim -faults` flag. Items:
//
//	seed=N                     RNG seed for probabilistic rules
//	drop=KIND:N                drop the next N messages of KIND
//	droprate=KIND:P            drop each KIND message with probability P
//	duprate=KIND:P             duplicate with probability P
//	delayrate=KIND:P:DUR       delay by DUR with probability P
//	corrupt=N                  corrupt every Nth data packet
//	flap=SW:PORT:DOWN:UP       fail switch SW's output PORT in [DOWN, UP)
//	flaphost=H:DOWN:UP         fail host H's injection link in [DOWN, UP)
//
// KIND is one of credit, token, xon, xoff, notify, data. Durations use
// Go syntax ("5us", "1ms"). Example:
//
//	-faults "seed=7,drop=token:3,droprate=xoff:0.01,flap=0:2:100us:400us"
func ParsePlan(spec string) (*Plan, error) {
	p := NewPlan(1)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("fault: item %q is not key=value", item)
		}
		if err := p.parseItem(key, val); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) parseItem(key, val string) error {
	switch key {
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("fault: seed %q: %v", val, err)
		}
		p.Seed = n
	case "drop":
		k, rest, err := parseKindPrefix(val)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return fmt.Errorf("fault: drop count %q", rest)
		}
		p.Drop(k, n)
	case "droprate", "duprate":
		k, rest, err := parseKindPrefix(val)
		if err != nil {
			return err
		}
		prob, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return fmt.Errorf("fault: probability %q: %v", rest, err)
		}
		r := p.Rules[k]
		if key == "droprate" {
			r.DropProb = prob
		} else {
			r.DupProb = prob
		}
		p.Rule(k, r)
	case "delayrate":
		k, rest, err := parseKindPrefix(val)
		if err != nil {
			return err
		}
		probStr, durStr, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("fault: delayrate %q needs KIND:P:DUR", val)
		}
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil {
			return fmt.Errorf("fault: probability %q: %v", probStr, err)
		}
		d, err := sim.ParseTime(durStr)
		if err != nil {
			return fmt.Errorf("fault: delay %q: %v", durStr, err)
		}
		r := p.Rules[k]
		r.DelayProb = prob
		r.Delay = d
		p.Rule(k, r)
	case "corrupt":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("fault: corrupt period %q", val)
		}
		p.CorruptEvery = n
	case "flap":
		parts := strings.Split(val, ":")
		if len(parts) != 4 {
			return fmt.Errorf("fault: flap %q needs SW:PORT:DOWN:UP", val)
		}
		swID, err1 := strconv.Atoi(parts[0])
		port, err2 := strconv.Atoi(parts[1])
		down, err3 := sim.ParseTime(parts[2])
		up, err4 := sim.ParseTime(parts[3])
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return fmt.Errorf("fault: flap %q: bad field: %w", val, err)
		}
		p.Flap(LinkFlap{Switch: swID, Port: port, Host: -1, Down: down, Up: up})
	case "flaphost":
		parts := strings.Split(val, ":")
		if len(parts) != 3 {
			return fmt.Errorf("fault: flaphost %q needs HOST:DOWN:UP", val)
		}
		host, err1 := strconv.Atoi(parts[0])
		down, err2 := sim.ParseTime(parts[1])
		up, err3 := sim.ParseTime(parts[2])
		if err := errors.Join(err1, err2, err3); err != nil {
			return fmt.Errorf("fault: flaphost %q: bad field: %w", val, err)
		}
		p.Flap(LinkFlap{Host: host, Down: down, Up: up})
	default:
		return fmt.Errorf("fault: unknown item %q", key)
	}
	return nil
}

func parseKindPrefix(s string) (Kind, string, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return 0, "", fmt.Errorf("fault: %q needs KIND:...", s)
	}
	k, err := ParseKind(name)
	if err != nil {
		return 0, "", err
	}
	return k, rest, nil
}

// ParseKind maps a kind name to its Kind value.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "credit":
		return Credit, nil
	case "token":
		return Token, nil
	case "xon":
		return Xon, nil
	case "xoff":
		return Xoff, nil
	case "notify", "notification":
		return Notify, nil
	case "data":
		return Data, nil
	}
	return 0, fmt.Errorf("fault: unknown message kind %q", name)
}
