package runner

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"testing"
)

// FuzzParseLine: the checkpoint line parser never panics, never
// accepts an entry without a key, and never accepts a CRC-prefixed line
// whose payload fails its checksum.
func FuzzParseLine(f *testing.F) {
	payload := `{"key":"fig8/a1b2c3","result":{"n":1}}`
	crcLine := fmt.Sprintf("%08x %s", crc32.ChecksumIEEE([]byte(payload)), payload)
	flipped := []byte(crcLine)
	if flipped[3] == '0' {
		flipped[3] = '1'
	} else {
		flipped[3] = '0'
	}
	f.Add([]byte(crcLine))                  // current format
	f.Add([]byte(payload))                  // legacy bare JSON
	f.Add([]byte(crcLine[:len(crcLine)/2])) // torn mid-payload
	f.Add(flipped)                          // one CRC digit flipped

	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := parseLine(line)
		if err != nil {
			return
		}
		if e.Key == "" {
			t.Fatalf("parseLine(%q) accepted an entry with no key", line)
		}
		if len(line) > 9 && line[8] == ' ' {
			if crc, perr := strconv.ParseUint(string(line[:8]), 16, 32); perr == nil {
				if got := crc32.ChecksumIEEE(line[9:]); got != uint32(crc) {
					t.Fatalf("parseLine(%q) accepted a payload with CRC %08x under prefix %08x", line, got, crc)
				}
			}
		}
	})
}
