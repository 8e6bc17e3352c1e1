package lint

import (
	"path"
	"reflect"
	"strings"
	"testing"

	"paso"
	"paso/internal/core"
	"paso/internal/faults"
	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/transport/tcp"
	"paso/internal/vsync"
)

// settingStructs are the option structs whose every exported field has a
// row in README's "Settings" table.
var settingStructs = []any{
	core.Config{},
	paso.Options{},
	vsync.NodeOptions{},
	tcp.Options{},
	obs.Options{},
	flight.SamplerOptions{},
	flight.RecorderOptions{},
	faults.RunOptions{},
}

// TestSettingsInventory checks README's settings table against the option
// structs: every exported field has a row, and every row names a field.
func TestSettingsInventory(t *testing.T) {
	rows := readSettings(t)
	for _, v := range settingStructs {
		typ := reflect.TypeOf(v)
		prefix := path.Base(typ.PkgPath()) + "." + typ.Name() + "."
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				name := prefix + f.Name
				if !rows[name] {
					t.Errorf("%s has no README settings row", name)
				}
				delete(rows, name)
			}
		}
	}
	for name := range rows {
		t.Errorf("README settings row %s names no field", name)
	}
}

// readSettings returns the setting names in the table under README's
// "## Settings".
func readSettings(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, line := range readmeRows(t, "## Settings") {
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		if out[name] {
			t.Errorf("README settings row %s appears twice", name)
		}
		out[name] = true
	}
	return out
}
