package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frame renders payload the way Append does: crc32 in %08x, a space, the
// payload.
func frame(payload []byte) []byte {
	return append(fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload)), payload...)
}

// FuzzDecodeFrame guards the one decoder. On any input decodeFrame must
// not panic; a frame it accepts must survive the writer's own encoding
// (json.Marshal + CRC) — re-encoded, it decodes to the same
// Record, so whatever recovery reads, a snapshot or a rewritten log
// would hold too — and must be protected by its checksum: flipping any
// one byte makes it a torn record.
func FuzzDecodeFrame(f *testing.F) {
	// One real frame of every record kind, as the writer emitted them.
	raw, err := os.ReadFile(filepath.Join("testdata", "flat-every-kind", segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	// Payloads at the edges of what encoding/json takes, each CRC-valid so
	// the payload decoder is actually reached.
	for _, payload := range []string{
		`{"seq":1,"kind":"tick","job_id":-1}`,
		`{"seq":01,"kind":"tick","job_id":-1}`,                   // leading zero
		`{"seq":18446744073709551615,"kind":"tick","job_id":-1}`, // uint64 max
		`{"seq":18446744073709551616,"kind":"tick","job_id":-1}`, // uint64 overflow
		`{"seq":2,"kind":"tick","at_ns":9223372036854775807,"job_id":-1}`,
		`{"seq":2,"kind":"tick","at_ns":-9223372036854775808,"job_id":-1}`,
		`{"seq":2,"kind":"tick","at_ns":9999999999999999999,"job_id":-1}`, // int64 overflow
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":1e3}`,
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":0.1}`,
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":-0.0}`,
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":1.7976931348623157e308}`,
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":0x1p3}`, // hex float
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":.5}`,    // bare fraction
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":1.}`,    // trailing dot
		`{"seq":3,"kind":"refund","job_id":4,"alloc":7,"amount":Infinity}`,
		`{"seq":4,"kind":"acquire","job_id":-1,"detail":"a\u0041b"}`,                       // escape
		`{"seq":4,"kind":"acquire","job_id":-1,"detail":"naïve"}`,                          // non-ASCII
		`{"seq":4,"kind":"acquire","job_id":-1,"detail":"a\\"}`,                            // backslash
		"{\"seq\":4,\"kind\":\"acquire\",\"job_id\":-1,\"detail\":\"\xff\xfe\"}",           // invalid UTF-8
		`{"seq":5,"kind":"tick","job_id":-1} `,                                             // trailing space
		`{"job_id":-1,"kind":"tick","seq":5}`,                                              // reordered keys
		`{"seq":5,"kind":"tick","job_id":-1,"future":"field"}`,                             // unknown key
		`{"seq":5,"kind":"wat","job_id":-1}`,                                               // unknown kind
		`{"seq":5,"kind":"tick","job_id":-1,"meta":{"seed":7}}`,                            // meta on a tick
		`{"seq":5,"kind":"submit","job_id":3,"job":null}`,                                  // submit without a job
		`{"seq":5,"kind":"tick","job_id":-1,"job_id":2}`,                                   // duplicate key
		`[{"seq":5,"kind":"tick","job_id":-1}]`,                                            // not an object
		`{"seq":5,"kind":"tick","job_id":-1}{"seq":6,"kind":"tick","job_id":-1}`,           // two objects
		`{"seq":5,"kind":"submit","job_id":0,"job":{"id":0,"spec":{"TargetWork":"lots"}}}`, // wrong type, nested
	} {
		f.Add(frame([]byte(payload)))
	}
	f.Add([]byte(""))
	f.Add([]byte("0000000"))
	f.Add([]byte("ZZZZZZZZ {}"))
	f.Add([]byte("00000000 "))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, ok := decodeFrame(line)
		if !ok {
			return
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode %+v: %v", line, rec, err)
		}
		if again, ok := decodeFrame(frame(payload)); !ok || !reflect.DeepEqual(again, rec) {
			t.Fatalf("%q does not survive re-encoding:\n first  %+v\n second %+v (ok=%v)", line, rec, again, ok)
		}
		flipped := make([]byte, len(line))
		for i := range line {
			copy(flipped, line)
			flipped[i] ^= 1
			if _, ok := decodeFrame(flipped); ok {
				t.Fatalf("accepted %q with byte %d flipped", line, i)
			}
		}
	})
}
