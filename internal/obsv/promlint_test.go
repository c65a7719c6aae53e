package obsv

import (
	"strings"
	"testing"
)

func TestLintAcceptsWellFormedText(t *testing.T) {
	good := `# HELP contiguitas_x counter "x"
# TYPE contiguitas_x counter
contiguitas_x 5
# TYPE contiguitas_g gauge
contiguitas_g -0.5
# TYPE contiguitas_h histogram
contiguitas_h_bucket{le="9"} 1
contiguitas_h_bucket{le="99"} 3
contiguitas_h_bucket{le="+Inf"} 4
contiguitas_h_sum 120
contiguitas_h_count 4
`
	if err := LintPromText(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected well-formed text: %v", err)
	}
}

func TestLintRejectsMalformedText(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "contiguitas_x 5\n",
		"duplicate TYPE":        "# TYPE a counter\n# TYPE a gauge\na 1\n",
		"unknown TYPE kind":     "# TYPE a summary\na 1\n",
		"bad metric name":       "# TYPE 9bad counter\n9bad 1\n",
		"unparseable value":     "# TYPE a counter\na five\n",
		"histogram without le":  "# TYPE h histogram\nh_bucket{fe=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"non-increasing le":     "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"decreasing cumulative": "# TYPE h histogram\nh_bucket{le=\"5\"} 3\nh_bucket{le=\"9\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf":          "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf != count":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if err := LintPromText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted:\n%s", name, text)
		}
	}
}
