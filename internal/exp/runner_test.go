package exp

import "testing"

// TestPolicyByName pins the one policy-name table: a static thread count is
// a positive integer with nothing around it.
func TestPolicyByName(t *testing.T) {
	good := map[string]string{
		"default":   "default",
		"dynamic":   "dynamic",
		"static":    "static-8",
		"static:1":  "static-1",
		"static:32": "static-32",
	}
	for name, want := range good {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		} else if p.Name() != want {
			t.Errorf("PolicyByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	for _, name := range []string{
		"", "Default", "dynamic ", "statik", "static-8",
		"static:", "static:0", "static:-4", "static:8abc", "static:8 9", "static: 8", "static:8.0", "static:0x8",
	} {
		if p, err := PolicyByName(name); err == nil {
			t.Errorf("PolicyByName(%q) accepted as %s", name, p.Name())
		}
	}
}
