package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// ingestAcks are bodies a pusher's client may be answered with on
// PathIngest. ack is the JSON object; trailer follows it on the wire. The
// client must read ack + trailer to what json.Unmarshal reads ack to, and
// fail exactly where json.Unmarshal fails.
var ingestAcks = []struct {
	name, ack, trailer string
}{
	{"indented", "{\n  \"applied\": true,\n  \"duplicate\": false,\n  \"merged_edges\": 37,\n  \"merged_weight\": 592,\n  \"store_edges\": 1512,\n  \"store_weight\": 88412.5\n}", "\n"},
	{"indented-duplicate", "{\n  \"applied\": false,\n  \"duplicate\": true,\n  \"merged_edges\": 410,\n  \"merged_weight\": 6560.25,\n  \"store_edges\": 1500,\n  \"store_weight\": 1.2345678901234567e+21\n}", "\n"},
	{"compact", `{"applied":true,"duplicate":false,"merged_edges":13,"merged_weight":208,"store_edges":96,"store_weight":4.440892098500626e-16}`, "\n"},
	{"compact-no-newline", `{"applied":true,"duplicate":false,"merged_edges":0,"merged_weight":0,"store_edges":0,"store_weight":0}`, ""},
	{"applied-only", `{"applied":true}`, "\n"},
	{"applied-duplicate", `{"applied":true,"duplicate":false}`, ""},
	{"duplicate-applied", `{"applied":false,"duplicate":true}`, ""},
	{"empty-object", `{}`, ""},
	{"any-order-any-space", " \t\r\n{ \"store_weight\" :\t-0 , \"merged_edges\":-7,\n\"applied\"\r:true }", ""},
	{"last-duplicate-key-wins", `{"applied":true,"merged_edges":1,"applied":false,"merged_edges":2}`, ""},
	{"exponents", `{"merged_weight":1E2,"store_weight":-2.5e-3,"merged_edges":-0}`, ""},
	{"unknown-field", `{"applied":true,"trace":"t-1","duplicate":false,"merged_edges":3}`, "\n"},
	{"unknown-nested-field", `{"applied":true,"stages":{"decode_us":[1,2]},"store_edges":9}`, ""},
	{"long-unknown-field", `{"applied":true,"note":"` + strings.Repeat("x", 2000) + `","store_weight":5}`, "\n"},
	{"case-folded-key", `{"APPLIED":true,"Merged_Edges":4}`, ""},
	{"escaped-key", `{"appl` + `\` + `u0069ed":true}`, ""},
	{"null-value", `{"applied":null,"merged_edges":3}`, ""},
	{"trailing-bytes", `{"applied":true,"store_edges":2}`, "garbage"},
	{"trailing-object", `{"applied":true}`, `{"applied":false}`},
	// Acks json.Unmarshal refuses: the client must fail on each.
	{"empty-body", ``, ""},
	{"not-json", `ok`, ""},
	{"string-for-bool", `{"applied":"yes"}`, ""},
	{"number-for-bool", `{"applied":1}`, ""},
	{"bool-for-number", `{"merged_edges":true}`, ""},
	{"fraction-for-int", `{"merged_edges":1.5}`, ""},
	{"exponent-for-int", `{"merged_edges":3e2}`, ""},
	{"int-overflow", `{"store_edges":9223372036854775808}`, ""},
	{"float-overflow", `{"store_weight":1e400}`, ""},
	{"plus-sign", `{"store_weight":+1}`, ""},
	{"leading-zero", `{"merged_edges":01}`, ""},
	{"bare-dot", `{"merged_weight":1.}`, ""},
	{"truncated", `{"applied":true,"store_edges":2`, ""},
	{"misspelled-literal", `{"applied":tru}`, ""},
	{"missing-comma", `{"applied":true "duplicate":false}`, ""},
	{"trailing-comma", `{"applied":true,}`, ""},
}

// TestIngestAckDecodes holds PushDeltaKeyed to json.Unmarshal on every
// ack in ingestAcks, served over a real connection.
func TestIngestAckDecodes(t *testing.T) {
	for _, tc := range ingestAcks {
		t.Run(tc.name, func(t *testing.T) {
			var want IngestResponse
			wantErr := json.Unmarshal([]byte(tc.ack), &want)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(tc.ack + tc.trailer))
			}))
			defer srv.Close()
			c := &Client{BaseURL: srv.URL, Retries: -1}
			got, err := c.PushDeltaKeyed("p-1", 1, ProgramKey{Program: "jess", Version: "9f86d081884c7d65"}, []byte("DCGB"))
			switch {
			case wantErr != nil && err == nil:
				t.Fatalf("client read %+v where json.Unmarshal fails: %v", *got, wantErr)
			case wantErr == nil && err != nil:
				t.Fatalf("client failed (%v) where json.Unmarshal reads %+v", err, want)
			case err == nil && *got != want:
				t.Fatalf("client read %+v, json.Unmarshal %+v", *got, want)
			}
		})
	}
}
