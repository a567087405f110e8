package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteVerilog emits the design as a structural Verilog module, instance
// names and cell bindings included — the interchange format between the
// synthesis and layout stages of a real flow. Unmapped instances use their
// generic function name.
func (d *Design) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "// generated by tmi3d\nmodule %s (", sanitize(d.Name))

	pis := d.SortedPIs()
	pos := make([]string, 0, len(d.POs))
	for p := range d.POs {
		pos = append(pos, p)
	}
	sort.Strings(pos)
	ports := append(append([]string{}, pis...), pos...)
	for i, p := range ports {
		if i > 0 {
			bw.WriteString(", ")
		}
		bw.WriteString(sanitize(p))
	}
	bw.WriteString(");\n")
	for _, p := range pis {
		fmt.Fprintf(bw, "  input %s;\n", sanitize(p))
	}
	for _, p := range pos {
		fmt.Fprintf(bw, "  output %s;\n", sanitize(p))
	}

	// Wires: every net that is not a port net.
	portNet := map[int]string{}
	for p, ni := range d.PIs {
		portNet[ni] = p
	}
	for p, ni := range d.POs {
		if _, ok := portNet[ni]; !ok {
			portNet[ni] = p
		}
	}
	for ni := range d.Nets {
		if _, ok := portNet[ni]; !ok {
			fmt.Fprintf(bw, "  wire %s;\n", sanitize(d.Nets[ni].Name))
		}
	}

	netRef := func(ni int) string {
		if p, ok := portNet[ni]; ok {
			return sanitize(p)
		}
		return sanitize(d.Nets[ni].Name)
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		cell := inst.CellName
		if cell == "" {
			cell = inst.Func
		}
		fmt.Fprintf(bw, "  %s %s (", cell, sanitize(inst.Name))
		for k, p := range inst.Pins {
			if k > 0 {
				bw.WriteString(", ")
			}
			fmt.Fprintf(bw, ".%s(%s)", p.Name, netRef(p.Net))
		}
		bw.WriteString(");\n")
	}
	bw.WriteString("endmodule\n")
	return bw.Flush()
}

// sanitize makes a name Verilog-identifier safe.
func sanitize(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('n')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// ParseVerilog reads a structural Verilog module written by WriteVerilog
// (single module, gate instances with named port connections). isOutput
// classifies instance pins; cell names of the form BASE_Xk bind CellName,
// and InsertBuffer's instance names mark IsBuffer.
func ParseVerilog(r io.Reader, isOutput func(cell, pin string) bool) (*Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var d *Design
	var outputs []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") || line == "endmodule" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "module "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "module"))
			if i := strings.IndexAny(name, " ("); i >= 0 {
				name = name[:i]
			}
			d = New(name)
		case strings.HasPrefix(line, "input "):
			for _, p := range splitNames(strings.TrimPrefix(line, "input ")) {
				d.AddPI(p, p)
			}
		case strings.HasPrefix(line, "output "):
			outputs = append(outputs, splitNames(strings.TrimPrefix(line, "output "))...)
		case strings.HasPrefix(line, "wire "):
			for _, p := range splitNames(strings.TrimPrefix(line, "wire ")) {
				d.AddNet(p)
			}
		default:
			if d == nil {
				return nil, fmt.Errorf("netlist: instance before module header")
			}
			if err := parseInstance(d, line, isOutput); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: no module found")
	}
	for _, p := range outputs {
		d.AddPO(p, p)
	}
	if ck := d.NetByName("clk"); ck >= 0 {
		d.SetClock("clk")
	}
	return d, nil
}

func splitNames(s string) []string {
	s = strings.TrimSuffix(strings.TrimSpace(s), ";")
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseInstance handles "CELL name (.A(n1), .Z(n2));".
func parseInstance(d *Design, line string, isOutput func(cell, pin string) bool) error {
	open := strings.Index(line, "(")
	if open < 0 {
		return fmt.Errorf("netlist: malformed instance %q", line)
	}
	head := strings.Fields(line[:open])
	if len(head) != 2 {
		return fmt.Errorf("netlist: malformed instance head %q", line)
	}
	cell, name := head[0], head[1]
	body := strings.TrimSuffix(strings.TrimSpace(line[open+1:]), ";")
	body = strings.TrimSuffix(body, ")")

	pins := map[string]string{}
	var outs []string
	for _, conn := range strings.Split(body, ",") {
		conn = strings.TrimSpace(conn)
		if conn == "" {
			continue
		}
		if !strings.HasPrefix(conn, ".") {
			return fmt.Errorf("netlist: positional connection %q unsupported", conn)
		}
		lp := strings.Index(conn, "(")
		rp := strings.LastIndex(conn, ")")
		if lp < 0 || rp < lp {
			return fmt.Errorf("netlist: malformed connection %q", conn)
		}
		pin := conn[1:lp]
		net := strings.TrimSpace(conn[lp+1 : rp])
		pins[pin] = net
		if isOutput(cell, pin) {
			outs = append(outs, pin)
		}
	}
	fn := cell
	if i := strings.LastIndex(cell, "_X"); i > 0 {
		fn = cell[:i]
	}
	idx := d.AddInstance(name, fn, pins, outs...)
	if fn != cell {
		d.Instances[idx].CellName = cell
	}
	d.Instances[idx].IsBuffer = strings.HasPrefix(name, bufferPrefix)
	return nil
}
