package trace

import "testing"

// FuzzParseRemote feeds arbitrary X-SP-Trace header values to ParseRemote:
// it never panics, and whatever it accepts re-encodes to a header that
// parses back to the same context.
func FuzzParseRemote(f *testing.F) {
	f.Add(RemoteContext{TraceID: "sp-abc", Parent: "4", At: 123456789}.Encode())
	f.Add("")
	f.Add(";;12")
	f.Add("sp-x;1;notanumber")
	f.Add("sp-x;sp-x.p3;-7")
	f.Fuzz(func(t *testing.T, header string) {
		rc, ok := ParseRemote(header)
		if !ok {
			return
		}
		again, ok := ParseRemote(rc.Encode())
		if !ok || again != rc {
			t.Fatalf("%q parsed to %+v, which re-encodes to %q and parses to %+v (ok=%v)", header, rc, rc.Encode(), again, ok)
		}
	})
}
